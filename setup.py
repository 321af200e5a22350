"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 517 editable
installs fail; ``pip install -e . --no-build-isolation --no-use-pep517``
uses this shim instead.  There is no metadata to install: the package
runs from ``PYTHONPATH=src`` (see README.md, "Install").
"""

from setuptools import setup

setup()
