from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Neu10: hardware-assisted virtualization of neural processing "
        "units (MICRO 2024 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "pyyaml"],
        # YAML scenario files for `repro run` (JSON works without it).
        "yaml": ["pyyaml"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
)
