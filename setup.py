"""Setuptools entry point.

The project metadata lives in ``pyproject.toml`` (name, version, the ``src``
layout; no dependencies).  ``pip install -e .`` reads it through the
standard build front end, which needs ``setuptools`` -- and, before
setuptools 70, the ``wheel`` package -- to be reachable.  This file exists
for hosts where they are not (offline, no ``wheel``): ``python setup.py
develop`` installs the same editable package from the same metadata with
what the interpreter already has.  Tests and benchmarks need neither: they
run with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
