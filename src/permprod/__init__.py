"""Random permutation matrix models of graph products.

Builds the string/color tensor model, evaluates traffic moments exactly and
by Monte Carlo, verifies the combinatorial structure behind the moment
expansion at small scale, and certifies permutation approximations of
products of groups over a color graph.
"""

from .partitions import Partition, enumerate_partitions, join, meet
from .digraphs import DiGraph, Multigraph, quotient_digraph, two_edge_decompose, weak_components
from .strings import (
    ColorGraph,
    ColorWord,
    StringAssignment,
    build_string_assignment,
    is_g_reduced,
    validate_assignment,
)
from .tensor import (
    MultiIndexSpace,
    Permutation,
    StructuredMatrix,
    chain_product,
    conjugate_by_color,
    delta,
    delta_vector,
    lift,
    perm_word_trace,
    rng_stream,
    sample_uniform_permutation,
)
from .traffic import (
    GCCGraph,
    LoopedTestGraph,
    MultiPartition,
    TestGraph,
    gamma_empirical,
    gamma_expected_formula,
    gcc,
    growth_exponent,
    injective_trace,
    lambda_value,
    rho,
    trace_test_graph,
)
from .chains import (
    ChainSpec,
    build_squared_chain,
    convergence_run,
    inconsistency_search,
    signed_expansion_check,
)
from .sofic import (
    INTEGERS,
    FiniteGroupTable,
    GeneratorRep,
    GraphProductRep,
    SoficCertificate,
    certify,
    cyclic_shift_rep,
    graph_product_rep,
    hamming_distance,
    left_regular_rep,
    pad_rep,
    reduce_word,
    word_triviality,
    word_trivialities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
