"""Setup shim for environments without PEP 660 editable-wheel support.

Registers the ``tip`` multi-command console script and ships the
native kernel's C unit and its cffi declarations
(``repro/kernel/native.c``, ``native.cdef``), which
:mod:`repro.kernel.native` reads at import.
"""

from setuptools import setup

setup(
    package_data={"repro.kernel": ["native.c", "native.cdef"]},
    entry_points={"console_scripts": ["tip = repro.cli:main"]},
)
