"""Core mining layer: the five algorithms, post-processing, and the facade.

Most users only need :class:`~repro.core.miner.StreamSubgraphMiner` (the
facade over stream + DSMatrix + algorithm + post-processing) together with the
result types in :mod:`repro.core.patterns`.
"""

from repro.core.export import (
    pattern_to_dot,
    result_to_csv,
    result_to_dot,
    result_to_json,
)
from repro.core.miner import StreamSubgraphMiner
from repro.core.patterns import FrequentPattern, MiningResult, PatternRows
from repro.core.postprocess import filter_connected_patterns
from repro.core.algorithms import (
    ALGORITHMS,
    DSTableMiner,
    DSTreeMiner,
    MultipleFPTreeMiner,
    SingleFPTreeCountingMiner,
    TopDownFPTreeMiner,
    VerticalDirectMiner,
    VerticalDiskMiner,
    VerticalMiner,
    get_algorithm,
)

__all__ = [
    "StreamSubgraphMiner",
    "FrequentPattern",
    "MiningResult",
    "PatternRows",
    "filter_connected_patterns",
    "result_to_json",
    "result_to_csv",
    "result_to_dot",
    "pattern_to_dot",
    "ALGORITHMS",
    "get_algorithm",
    "MultipleFPTreeMiner",
    "SingleFPTreeCountingMiner",
    "TopDownFPTreeMiner",
    "VerticalMiner",
    "VerticalDiskMiner",
    "VerticalDirectMiner",
    "DSTreeMiner",
    "DSTableMiner",
]
