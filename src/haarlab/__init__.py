"""Exact verification of generalized Haar measures at desk scale."""

from .covering import covering_number, covering_table, existence_via_covering
from .groups import (
    FiniteGroup,
    FiniteTopGroup,
    coset_topology,
    cyclic,
    dihedral,
    direct_product,
    group_topologies,
    identity_closure,
    quaternion8,
    quotient,
    symmetric3,
    trivial_group,
)
from .measure import (
    FiniteMeasure,
    HaarReport,
    canonical_haar,
    fubini_check,
    haar_solution_space,
    integrate,
    is_haar,
    pullback,
    pushforward,
    riesz_check,
)
from .plane import (
    BkCertificate,
    Interval,
    IntervalUnion,
    counterexample_bk,
    haar_v,
    regularity_gap,
    translate_v,
    verify_bk_certificate,
)
from .topology import (
    FiniteSpace,
    PointFunction,
    enumerate_topologies,
    separate,
    split_compact,
    urysohn_finite,
)

__version__ = "0.1.0"
