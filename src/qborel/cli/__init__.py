"""Instance files, run certificates, and the command-line front end."""

from .certificates import CHECKERS, Certificate, reverify, run_check
from .instance import InstanceFile, parse_instance
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
