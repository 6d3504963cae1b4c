"""Packaging: a src-layout install that ships the bundled scenario
specs (``repro/scenarios/specs/*.toml``) as package data."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.10.0",
    description="DATAFLASKS reproduction: an epidemic key-value substrate",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.scenarios": ["specs/*.toml"]},
    include_package_data=True,
    python_requires=">=3.11",
)
