"""Weighted embedding constants, small-energy majorants and extremal
families on finite dyadic bi-trees."""

from types import ModuleType as _ModuleType

from .trees import (
    BiTreeTopology,
    DownSet,
    SizeError,
    TreeTopology,
    UpSet,
    build_bitree,
    build_tree,
    down_closure,
    is_down_mask,
    is_up_mask,
    up_closure,
)
from .operators import (
    MassFunction,
    PotentialField,
    WeightFunction,
    energy,
    energy_box,
    energy_delta,
    energy_downset,
    hardy_adjoint,
    hardy_forward,
    potential,
    truncated_potential,
    v_good,
)
from .constants import (
    ChainReport,
    ConstantReport,
    box_constant,
    carleson_constant,
    embedding_constant,
    hereditary_constant,
    sawyer_conditions,
    verify_chain,
)
from .majorization import (
    MajorantResult,
    PreconditionError,
    balance,
    cEcE_ratio,
    check_l1linf,
    check_positive_kernel,
    is_superadditive,
    majorant_bitree,
    majorant_tree,
)
from .counterexamples import (
    CornerFamily,
    gen_rec_not_embedding,
    gen_simple_car_not_rec,
    gen_sum_of_products,
    gen_upset_car_not_rec,
    lift_carleson_family,
    paraproduct_weight,
    structured_potential,
)
from .maximal import (
    SparseSelection,
    extremal_weight,
    maximal_equivalence_probe,
    maximal_function,
    sparse_selection,
)
from .scenarios import SweepReport, run_scenario, sweep

__version__ = "0.1.0"

__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
