"""Packaging for the peer sampling service reproduction.

Installs the ``repro`` package from ``src/`` plus two console entry
points:

- ``repro-node`` -- run one networked peer sampling daemon (UDP);
- ``repro-seed`` -- run the cluster's introduction/liveness seed node;
- ``repro-experiments`` -- regenerate the paper's tables and figures.
"""

import os
import re

from setuptools import find_packages, setup

_here = os.path.dirname(os.path.abspath(__file__))

# The version is stated once, in the package.
with open(
    os.path.join(_here, "src", "repro", "__init__.py"), encoding="utf-8"
) as _fh:
    _version = re.search(r'^__version__ = "([^"]+)"', _fh.read(), re.M).group(1)

_readme = os.path.join(_here, "README.md")
if os.path.exists(_readme):
    with open(_readme, encoding="utf-8") as _fh:
        _long_description = _fh.read()
else:
    _long_description = ""

setup(
    name="repro-peer-sampling",
    version=_version,
    description=(
        "Reproduction of 'The Peer Sampling Service' (Jelasity et al., "
        "Middleware 2004): gossip protocol library, simulation engines, "
        "experiment suite and an asyncio UDP deployment layer"
    ),
    long_description=_long_description,
    long_description_content_type="text/markdown",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    # the C core is compiled from source at first use
    package_data={"repro.simulation": ["*.c", "*.h"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "pytest-timeout", "hypothesis"],
        "metrics": ["scipy"],
    },
    entry_points={
        "console_scripts": [
            "repro-node=repro.net.cli:main",
            "repro-seed=repro.control.cli:main",
            "repro-experiments=repro.experiments.runner:main",
        ],
    },
)
