"""Package metadata: this file is the only place it lives.

There is no ``pyproject.toml``, so ``pip install -e .`` runs
``setup.py develop`` and works without the ``wheel`` package.

Runtime dependencies: ``numpy`` (the array tier and batched HPWL) and
``scipy`` (the sequence-pair symmetric packer falls back to
``scipy.optimize.linprog`` for the exact packing).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
