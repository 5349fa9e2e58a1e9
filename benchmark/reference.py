"""Independent reference computations that referee the program's answers.

Nothing here calls into ``bitree_embed``: the tree sums, the LCA kernel, the
linear programs, the eigenvalue brackets and the closed forms of the
extremal families are written from their definitions, so that a fault in the
program cannot hide behind the same fault in its referee.

Dense arrays use the program's documented layout: shape
``(2**(Nx+1), 2**(Ny+1))``, heap indexing per axis (generation ``j``, offset
``k`` at index ``2**j + k``), row and column 0 unused.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# relative agreement demanded of values the program and the referee both
# compute in float64; a 1e-6 relative perturbation must fail every check
REL_TOL = 1e-9
# a Collatz-Wielandt bracket of this relative width pins the top eigenvalue
# well inside the 1e-6 perturbation every check must reject
CW_TARGET_WIDTH = 2e-7
# up to this many support points the top eigenvalue comes from a dense
# symmetric eigensolve; above it, from a Collatz-Wielandt bracket
DENSE_EIG_MAX = 256
# how far the program's embedding value may sit below the top eigenvalue,
# and its witness's Rayleigh quotient from the value: the value is a
# power-iteration Rayleigh quotient, which the program's own tests hold to
# 1e-8 relative of a dense eigensolve.  Its stopping rule (a 1e-10 relative
# change between steps) bounds no distance to the top eigenvalue; that
# distance reached 1.7e-9 relative on 20 000 sweep instances
EIG_TOL = 1e-8


class CheckFailed(AssertionError):
    """The program's output disagrees with its referee."""


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# per-axis sums, by level reshapes
# ---------------------------------------------------------------------------

def _depth(length: int) -> int:
    return length.bit_length() - 2


def _desc_axis0(v: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=np.float64)
    for j in range(_depth(out.shape[0]) - 1, -1, -1):
        lo = 1 << j
        out[lo : 2 * lo] += out[2 * lo : 4 * lo].reshape(lo, 2, -1).sum(axis=1)
    return out


def _anc_axis0(v: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=np.float64)
    for j in range(1, _depth(out.shape[0]) + 1):
        lo = 1 << j
        out[lo : 2 * lo] += out[lo >> 1 : lo].repeat(2, axis=0)
    return out


def descendant_sums(v: np.ndarray) -> np.ndarray:
    """out[g] = sum of v over the rectangles contained in g."""
    return _desc_axis0(_desc_axis0(v).T).T


def ancestor_sums(v: np.ndarray) -> np.ndarray:
    """out[g] = sum of v over the rectangles containing g."""
    return _anc_axis0(_anc_axis0(v).T).T


def energy_density(mass: np.ndarray, weight: np.ndarray) -> np.ndarray:
    istar = descendant_sums(mass)
    return weight * istar * istar


def valid_mask(shape) -> np.ndarray:
    m = np.ones(shape, dtype=bool)
    m[0, :] = False
    m[:, 0] = False
    return m


def is_down_set(mask: np.ndarray) -> bool:
    """Every child (per axis) of a member is a member."""
    nx, ny = mask.shape
    m = mask.copy()
    m[0, :] = m[:, 0] = False
    hx, hy = nx // 2, ny // 2
    ok = True
    if hx > 1:
        par = m[1:hx]
        ok &= not np.any(par & ~m[2:nx:2]) and not np.any(par & ~m[3:nx:2])
    if hy > 1:
        par = m[:, 1:hy]
        ok &= not np.any(par & ~m[:, 2:ny:2]) and not np.any(par & ~m[:, 3:ny:2])
    return bool(ok)


# ---------------------------------------------------------------------------
# box constant
# ---------------------------------------------------------------------------

def check_box(mass, weight, value: float, node) -> None:
    istar = descendant_sums(mass)
    cume = descendant_sums(energy_density(mass, weight))
    pos = (istar > 0) & valid_mask(mass.shape)
    ratios = np.where(pos, cume, 0.0) / np.where(pos, istar, 1.0)
    best = float(ratios.max())
    require(close(value, best), f"box value {value!r} != referee maximum {best!r}")
    require(bool(pos[node]) and close(value, float(ratios[node])),
            f"box witness {node} has ratio {float(ratios[node])!r}, not {value!r}")


# ---------------------------------------------------------------------------
# Carleson constant: closure LP on cover edges plus the witness ratio
# ---------------------------------------------------------------------------

def cover_edge_matrix(shape) -> sp.csr_matrix:
    """Rows x_parent - x_child <= 0 over the per-axis cover edges of the
    valid nodes; columns index valid nodes row-major from (1, 1)."""
    nx, ny = shape
    cols = ny - 1
    idx = np.arange((nx - 1) * cols).reshape(nx - 1, cols)  # idx[i-1, j-1]
    par, chi = [], []
    for i in range(1, nx // 2):
        for c in (2 * i, 2 * i + 1):
            par.append(idx[i - 1])
            chi.append(idx[c - 1])
    for j in range(1, ny // 2):
        for c in (2 * j, 2 * j + 1):
            par.append(idx[:, j - 1])
            chi.append(idx[:, c - 1])
    if not par:
        return sp.csr_matrix((0, idx.size))
    p = np.concatenate(par)
    c = np.concatenate(chi)
    rows = np.arange(p.size)
    data = np.concatenate([np.ones(p.size), -np.ones(p.size)])
    return sp.csr_matrix((data, (np.concatenate([rows, rows]), np.concatenate([p, c]))),
                         shape=(p.size, idx.size))


def closure_surplus(e: np.ndarray, mass: np.ndarray, lam: float) -> tuple[float, float]:
    """(max over down-sets D of e(D) - lam * mu(D), scale), by the LP whose
    constraint matrix is a network matrix, hence integral."""
    c = (e - lam * mass)[1:, 1:].ravel()
    a = cover_edge_matrix(mass.shape)
    res = linprog(-c, A_ub=a, b_ub=np.zeros(a.shape[0]), bounds=(0.0, 1.0), method="highs")
    require(res.status == 0, f"closure LP did not solve: {res.message}")
    scale = float(e.sum() + lam * mass.sum())
    return float(-res.fun), scale


def check_carleson(mass, weight, value: float, mask: np.ndarray) -> None:
    e = energy_density(mass, weight)
    require(is_down_set(mask), "Carleson witness is not a down-set")
    den = float((mass * mask).sum())
    require(den > 0, "Carleson witness carries no mass")
    ratio = float((e * mask).sum()) / den
    require(close(value, ratio), f"Carleson witness ratio {ratio!r} != value {value!r}")
    surplus, scale = closure_surplus(e, mass, value)
    require(surplus <= REL_TOL * scale,
            f"a down-set beats Carleson value {value!r}: surplus {surplus!r} of scale {scale!r}")


# ---------------------------------------------------------------------------
# hereditary constant: Charikar's densest-subgraph LP on the LCA kernel
# ---------------------------------------------------------------------------

def _lca(a: int, b: int) -> int:
    while a != b:
        if a > b:
            a >>= 1
        else:
            b >>= 1
    return a


def lca_kernel(weight: np.ndarray, support) -> np.ndarray:
    """K[i, j] = sum of the weight over rectangles containing both points."""
    iw = ancestor_sums(weight)
    n = len(support)
    k = np.empty((n, n))
    for i, (xi, yi) in enumerate(support):
        for j in range(i, n):
            xj, yj = support[j]
            k[i, j] = k[j, i] = iw[_lca(xi, xj), _lca(yi, yj)]
    return k


def densest_subgraph_value(kernel: np.ndarray, m: np.ndarray) -> float:
    """max over S of m_S^T K m_S / m(S), as Charikar's LP: edge weights
    2 K_ij m_i m_j, loops K_ii m_i^2, node weights m_i."""
    n = len(m)
    iu, ju = np.triu_indices(n)
    wt = np.where(iu == ju, 1.0, 2.0) * kernel[iu, ju] * m[iu] * m[ju]
    ne = iu.size
    # variables: x_0..x_{n-1}, then y_e; constraints y_e - x_i <= 0, y_e - x_j <= 0
    rows = np.arange(ne)
    a_ub = sp.csr_matrix(
        (np.concatenate([np.ones(ne), -np.ones(ne), np.ones(ne), -np.ones(ne)]),
         (np.concatenate([rows, rows, rows + ne, rows + ne]),
          np.concatenate([n + rows, iu, n + rows, ju]))),
        shape=(2 * ne, n + ne))
    a_eq = sp.csr_matrix(np.concatenate([m, np.zeros(ne)])[None, :])
    c = np.concatenate([np.zeros(n), -wt])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * ne), A_eq=a_eq, b_eq=[1.0],
                  bounds=(0.0, None), method="highs")
    require(res.status == 0, f"densest-subgraph LP did not solve: {res.message}")
    return float(-res.fun)


def check_hereditary(mass, weight, value: float, certified: bool, mask: np.ndarray) -> None:
    support = [(int(a), int(b)) for a, b in zip(*np.nonzero(mass))]
    m = np.array([mass[s] for s in support])
    kernel = lca_kernel(weight, support)
    sel = np.array([bool(mask[s]) for s in support])
    require(bool(np.all(mask[mass == 0] == 0)), "hereditary witness leaves the support")
    ms = m * sel
    require(ms.sum() > 0, "hereditary witness is empty")
    ratio = float(ms @ kernel @ ms / ms.sum())
    require(close(value, ratio), f"hereditary witness ratio {ratio!r} != value {value!r}")
    lp = densest_subgraph_value(kernel, m)
    if certified:
        require(close(value, lp), f"certified hereditary value {value!r} != LP value {lp!r}")
    else:
        require(value <= lp * (1 + REL_TOL), f"hereditary lower bound {value!r} exceeds LP {lp!r}")


# ---------------------------------------------------------------------------
# embedding constant: dense eigensolve or Collatz-Wielandt bracket
# ---------------------------------------------------------------------------

def _embedding_operator(mass, weight):
    """(support, sqrt of its masses, x -> M x) for M = D^1/2 K D^1/2 on
    supp(mass), applied by the referee's own sweeps."""
    supp = np.nonzero(mass > 0)
    sq = np.sqrt(mass[supp])
    w = np.asarray(weight, dtype=np.float64)

    def matvec(x):
        phi = np.zeros(mass.shape)
        phi[supp] = x * sq
        return sq * ancestor_sums(w * descendant_sums(phi))[supp]

    return supp, sq, matvec


def top_eigenvalue_bracket(mass, weight, psi, max_iter: int = 400):
    """[lo, hi] around the top eigenvalue of M = D^1/2 K D^1/2 on supp(mass).
    Small supports: both ends are the top eigenvalue of the dense M, built
    from the referee's LCA kernel.  Large ones: M is entrywise nonnegative,
    so for x > 0, min (Mx)_i / x_i <= lambda_max <= max (Mx)_i / x_i
    (Collatz-Wielandt), and for symmetric M the Rayleigh quotient is a lower
    bound too; power steps from the witness x = psi D^1/2 narrow the bracket
    until it is CW_TARGET_WIDTH wide."""
    supp, sq, matvec = _embedding_operator(mass, weight)
    if sq.size <= DENSE_EIG_MAX:
        kernel = lca_kernel(weight, [(int(a), int(b)) for a, b in zip(*supp)])
        top = float(np.linalg.eigvalsh(sq[:, None] * kernel * sq[None, :])[-1])
        return top, top
    x = np.asarray(psi, dtype=np.float64)[supp] * sq
    lo, hi = 0.0, np.inf
    for _ in range(max_iter):
        y = matvec(x)
        q = y / x
        lo = max(lo, float(q.min()), float(x @ y) / float(x @ x))
        hi = min(hi, float(q.max()))
        if hi - lo <= CW_TARGET_WIDTH * hi:
            break
        x = y / np.linalg.norm(y)
    require(hi - lo <= CW_TARGET_WIDTH * hi, f"eigenvalue bracket [{lo!r}, {hi!r}] did not close")
    return lo, hi


def check_embedding(mass, weight, value: float, psi) -> None:
    supp, sq, matvec = _embedding_operator(mass, weight)
    x = np.asarray(psi, dtype=np.float64)[supp] * sq
    require(bool(np.all(x > 0)), "embedding witness is not positive on the support")
    rayleigh = float(x @ matvec(x)) / float(x @ x)
    require(close(rayleigh, value, EIG_TOL),
            f"embedding witness has Rayleigh quotient {rayleigh!r}, not the value {value!r}")
    lo, hi = top_eigenvalue_bracket(mass, weight, psi)
    # a Rayleigh quotient never exceeds the top eigenvalue, so only rounding
    # may lift the value above it; below it, EIG_TOL applies
    require(lo - EIG_TOL * hi <= value <= hi + REL_TOL * hi,
            f"embedding value {value!r} outside the top-eigenvalue bracket [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# extremal corner families, from the staircase alone
# ---------------------------------------------------------------------------

class Staircase:
    """The base rectangles [0, 2^-A_j] x [0, 2^-B_j], A_j = 2^j, B_j = N / 2^j,
    j = 1 .. log2(N) - 1, and U, the set of corner rectangles (a, b) that
    contain one of them (a <= A_j and b <= B_j for some j)."""

    def __init__(self, n: int):
        self.n = n
        log_n = n.bit_length() - 1
        self.a = [1 << j for j in range(1, log_n)]
        self.b = [n >> j for j in range(1, log_n)]
        self.m = len(self.a)
        # a in (A_{l-1}, A_l] has Bmax(a) = B_l; A_0 := -1
        self.a_runs = [(self.a[l] - (self.a[l - 1] if l else -1), self.b[l]) for l in range(self.m)]

    def base(self):
        return list(zip(self.a, self.b))

    def count_u(self) -> int:
        """|U|."""
        return sum(run * (bmax + 1) for run, bmax in self.a_runs)

    def count_u_box(self, x: int, y: int) -> int:
        """|U within [0..x] x [0..y]|."""
        if x < 0 or y < 0:
            return 0
        total, start = 0, 0
        for l, (run, bmax) in enumerate(self.a_runs):
            end = self.a[l]  # this run covers a in [start, end]
            if start > x:
                break
            total += (min(end, x) - start + 1) * (min(y, bmax) + 1)
            start = end + 1
        return total

    def pieces_potential(self, cap_x: int, cap_y: int, pieces) -> float:
        """Potential at a node whose offset-0 ancestors reach generations
        (cap_x, cap_y), for pieces [(rect_mass, rects)]: every weighted
        ancestor (a, b) collects the mass of each quadrant it contains, i.e.
        of each rect (pa, pb) with a <= pa and b <= pb."""
        total = 0.0
        for mass, rects in pieces:
            total += mass * sum(self.count_u_box(min(cap_x, pa), min(cap_y, pb))
                                for pa, pb in rects)
        return total

    def piece0_energy(self) -> float:
        """Energy of the base quadrant pieces (mass 1/N each) alone: the sum
        over U of (#{j : (a, b) <= (A_j, B_j)} / N)^2.  For a in the l-th run
        the count at b is hi(b) - l + 1, with hi(b) = j on (B_{j+1}, B_j]."""
        total = 0
        for l, (run, _) in enumerate(self.a_runs):
            s = 0
            for j in range(l, self.m):
                nxt = self.b[j + 1] if j + 1 < self.m else -1
                s += (self.b[j] - nxt) * (j - l + 1) ** 2
            total += run * s
        return total / self.n**2

    def upset_carleson(self) -> float:
        """Carleson constant of the up-set family (quadrant mass 1/N each and
        a 1/N corner atom).  A down-set holding the quadrants J gains the
        weighted corner rectangles whose quadrant set, the interval
        [lo(a), hi(b)], lies in J; each carries mass (|interval| + 1) / N.
        Maximised over every nonempty J at once, as bitmasks."""
        m, n = self.m, self.n
        b_runs = [self.b[h] - (self.b[h + 1] if h + 1 < m else -1) for h in range(m)]
        ivals, gains = [], []
        for lo in range(m):
            for hi in range(lo, m):
                ivals.append(((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1))
                gains.append(self.a_runs[lo][0] * b_runs[hi] * ((hi - lo + 2) / n) ** 2)
        subsets = np.arange(1, 1 << m, dtype=np.int64)
        iv = np.array(ivals, dtype=np.int64)
        inside = (subsets[:, None] & iv[None, :]) == iv[None, :]
        num = inside.astype(np.float64) @ np.array(gains)
        sizes = np.array([bin(int(s)).count("1") for s in subsets])
        return float(np.max(num / ((sizes + 1) / n)))


def corner_cap(gen: int, off: int) -> int:
    """Deepest generation at which the ancestor of (gen, off) has offset 0."""
    return gen if off == 0 else gen - off.bit_length()


def upset_values(n: int) -> dict:
    """Closed forms of the up-set family's reported quantities."""
    st = Staircase(n)
    return {
        "m_count": st.m,
        "hereditary_witness": st.count_u() / n,
        "corner_potential": sum((a + 1) * (b + 1) for a, b in st.base()) / n,
        "carleson": st.upset_carleson(),
    }


def upset_cell_potential(n: int, cell) -> float:
    gx, ox, gy, oy = cell
    st = Staircase(n)
    return st.pieces_potential(corner_cap(gx, ox), corner_cap(gy, oy), [(1.0 / n, st.base())])


def layered_pieces(n: int) -> list:
    """[(rect_mass, rects)] of the layered family: the base quadrants with
    mass 1/N, then for span 2^k the intersections of span consecutive base
    rectangles with mass 1 / (4^k N)."""
    st = Staircase(n)
    pieces = [(1.0 / n, st.base())]
    for k in range(1, st.m.bit_length()):
        span = 1 << k
        rects = [(st.a[j + span - 1], st.b[j]) for j in range(st.m - span + 1)]
        pieces.append((1.0 / ((1 << (2 * k)) * n), rects))
    return pieces


def layered_values(n: int) -> dict:
    st = Staircase(n)
    pieces = layered_pieces(n)
    lhs = 0.0
    for mass, rects in pieces:
        for a, b in rects:
            v = st.pieces_potential(a, b, pieces[:1])
            lhs += mass * v * v
    rhs = st.piece0_energy()
    return {"m_count": st.m, "k_count": len(pieces) - 1, "test_numerator": lhs,
            "test_denominator": rhs, "embedding_lower_ratio": lhs / rhs}


def layered_tail_potential(n: int, k: int, cell) -> float:
    gx, ox, gy, oy = cell
    return Staircase(n).pieces_potential(corner_cap(gx, ox), corner_cap(gy, oy),
                                         layered_pieces(n)[k:])
