"""Input plug-ins.

Input plug-ins encapsulate data-format heterogeneity: each one knows how to
access a specific file format (CSV, JSON, binary row or binary column) and
serves the rest of the engine through the calls of
:class:`~repro.plugins.base.InputPlugin`: row ranges of columnar batches for
the batch pipeline, one dict per object for the Volcano interpreter.
"""

from repro.plugins.base import InputPlugin, ScanBuffers
from repro.plugins.binary_col_plugin import BinaryColumnPlugin, BinaryRowPlugin
from repro.plugins.csv_plugin import CsvPlugin
from repro.plugins.json_plugin import JsonPlugin

__all__ = [
    "InputPlugin",
    "ScanBuffers",
    "CsvPlugin",
    "JsonPlugin",
    "BinaryRowPlugin",
    "BinaryColumnPlugin",
]
