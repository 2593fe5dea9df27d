"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 660 editable
installs cannot build; this shim lets ``pip install -e .`` use the legacy
``setup.py develop`` path. All metadata lives in pyproject.toml and is
duplicated minimally here because legacy installs cannot read the
``[project]`` table with the preinstalled setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Estimating the Compression Fraction of an "
        "Index using Sampling' (ICDE 2010)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy"],
)
