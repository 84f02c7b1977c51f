"""Path delay fault model: faults, enumeration, counting, selection,
and the columnar :class:`FaultTable` the fault walks read."""

from .fault import PathDelayFault, TestClass, Transition, both_transitions
from .enumerate import (
    check_cap,
    collect_faults,
    iter_faults,
    iter_paths,
    longest_paths,
)
from .count import count_faults, count_paths, path_length_histogram, paths_per_signal
from .selection import (
    all_faults,
    describe_fault_universe,
    fault_list,
    longest_path_faults,
    sampled_faults,
)
from .table import FaultRows, FaultTable

__all__ = [
    "FaultRows",
    "FaultTable",
    "PathDelayFault",
    "TestClass",
    "Transition",
    "all_faults",
    "both_transitions",
    "check_cap",
    "collect_faults",
    "count_faults",
    "count_paths",
    "describe_fault_universe",
    "fault_list",
    "iter_faults",
    "iter_paths",
    "longest_path_faults",
    "longest_paths",
    "path_length_histogram",
    "paths_per_signal",
    "sampled_faults",
]
