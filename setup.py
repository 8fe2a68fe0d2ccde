"""Build configuration of the ``repro`` package (the source lives in ``src/``).

``pip install .`` builds it; offline environments without the ``wheel``
package can still do ``pip install -e . --no-build-isolation`` or
``python setup.py develop``.  The version is read from
``src/repro/__init__.py``, so it is stated once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
)
