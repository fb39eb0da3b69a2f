"""Setuptools configuration: the package's only build file.

Nothing needs installing to run from the tree (``PYTHONPATH=src``); this file
serves offline installs (``pip install -e . --no-use-pep517
--no-build-isolation``) in environments without the ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of AntDT: A Self-Adaptive Distributed Training Framework "
        "for Leader and Straggler Nodes (ICDE 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
