"""Setup shim for environments without PEP 660 editable-wheel support.

Registers the ``tip`` multi-command console script plus the
historical per-command names as aliases of its subcommands, and ships
the native kernel's C unit and its cffi declarations
(``repro/kernel/native.c``, ``native.cdef``), which
:mod:`repro.kernel.native` reads at import.
"""

from setuptools import setup

setup(
    package_data={"repro.kernel": ["native.c", "native.cdef"]},
    entry_points={
        "console_scripts": [
            "tip = repro.cli:main",
            # aliases: tip-<name> == tip <name>
            "tip-atpg = repro.cli:main_atpg",
            "tip-campaign = repro.cli:main_campaign",
            "tip-paths = repro.cli:main_paths",
            "tip-experiments = repro.cli:main_experiments",
            "tip-serve = repro.cli:main_serve",
            "tip-validate = repro.cli:main_validate",
        ]
    }
)
