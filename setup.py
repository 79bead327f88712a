"""Setuptools packaging for the ``repro`` library; the project metadata lives here.

``scipy>=1.15`` is the floor because ``repro.lp.backends`` calls the HiGHS
binding those releases bundle as ``scipy.optimize._highspy._core``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.15", "networkx>=3.0"],
)
