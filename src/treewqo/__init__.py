"""Well-quasi orders on trees over fixed-arity signatures.

Eight base orders on trees (size, homeomorphic embedding, constructor
set, repeated-constructor set, constructor bag, set-refined size,
preorder-string and Euler-string subsequence), their intersections, an
incremental "whistle" sequence checker pruned by the implication
lattice, a seeded random-tree generator and a discriminative-power
census.
"""

from .bench import BenchReport, bench_whistle, monotone_stream
from .census import AuditReport, CensusResult, census, hierarchy_audit, write_census_tsv
from .generate import GeneratorConfig, SplitMix64, default_config, generate_corpus, random_tree
from .orders import (
    WqoSpec,
    all_named_specs,
    implies,
    is_subsequence,
    multiset_leq,
    multiset_subset,
    parse_wqo_name,
    rel,
    rel_bag,
    rel_embed,
    rel_euler,
    rel_preorder,
    rel_repeated,
    rel_set,
    rel_size,
    rel_sized_set,
)
from .signature import (
    Constructor,
    ConstructorBag,
    ParseError,
    Signature,
    TraversalSymbol,
    Tree,
    constructor_bag,
    constructor_set,
    default_signature,
    euler_traversal,
    iter_trees,
    load_trees,
    parse_tree,
    pre_traversal,
    render_tree,
    repeated_set,
    save_trees,
    size,
    tree_equal,
    tree_hash,
)
from .whistle import NaiveChecker, PushOutcome, SequenceChecker

__version__ = "0.1.0"
