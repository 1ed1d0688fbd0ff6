"""Out-of-core execution: spill files, memory budgets, spilled Z.

Sparta's whole point is contractions whose working set exceeds fast
memory; this package makes that real rather than simulated. The pieces:

* :class:`MemoryBudget` / :func:`parse_budget` — live-allocation
  accounting against a user cap (``contract(memory_budget=...)``,
  ``ttt --memory-budget``);
* :mod:`~repro.ooc.runfile` — the mmap-readable spill format (header +
  packed named arrays) of the stage-1 HtY partials and payload;
* :class:`SpillManager` — spill-directory lifecycle + byte accounting;
* :func:`stream_finalize` — maps the Z rows the spill sink wrote as
  each range arrived, restoring range order when an executor delivered
  ranges out of order;
* :func:`ooc_contract` — the budget-capped serial engine, byte-exact
  against the in-core engines in both results and Table-2 traffic.
"""

from repro.ooc.budget import MemoryBudget, parse_budget
from repro.ooc.engine import DEFAULT_BLOCK_ROWS, ooc_contract, stream_finalize
from repro.ooc.runfile import RunFileReader, RunFileWriter
from repro.ooc.spill import SpillManager

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "MemoryBudget",
    "RunFileReader",
    "RunFileWriter",
    "SpillManager",
    "ooc_contract",
    "parse_budget",
    "stream_finalize",
]
