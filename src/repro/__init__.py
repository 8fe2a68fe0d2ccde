"""repro — a reproduction of Proteus (VLDB 2016).

"Fast Queries Over Heterogeneous Data Through Engine Customization"
(Karpathiotakis, Alagiannis, Ailamaki).  The package provides:

* :class:`repro.ProteusEngine` — the query engine: register raw CSV, JSON and
  relational binary datasets and query them (SQL or comprehension syntax)
  through a per-query specialized execution engine with adaptive caching,
* ``repro.baselines`` — simulated comparator systems (row stores, column
  stores, a document store and a federated combination) used by the
  reproduced experiments,
* ``repro.workloads`` — deterministic TPC-H-derived and Symantec-like
  workload generators,
* ``repro.bench`` — the harness that regenerates every figure and table of the
  paper's evaluation.
"""

from repro.core.engine import PreparedQuery, ProteusEngine, ResultSet
from repro.errors import ProteusError
from repro.serve import ProteusServer

__version__ = "1.0.0"

__all__ = [
    "PreparedQuery",
    "ProteusEngine",
    "ProteusServer",
    "ResultSet",
    "ProteusError",
    "__version__",
]
