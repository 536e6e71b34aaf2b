"""Instance files, run certificates, and the command-line front end.

InstanceFile and parse_instance are imported from cli.instance on first
use (PEP 562): a verify reads no instance file, so it loads no parser.
"""

from .certificates import CHECKERS, Certificate, reverify, run_check
from .main import COMMANDS, build_parser, main

__all__ = [
    "CHECKERS",
    "Certificate",
    "reverify",
    "run_check",
    "InstanceFile",
    "parse_instance",
    "COMMANDS",
    "build_parser",
    "main",
]


def __getattr__(name):
    if name not in ("InstanceFile", "parse_instance"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import instance

    value = getattr(instance, name)
    globals()[name] = value
    return value
