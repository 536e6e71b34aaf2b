"""Batch command dispatch.

Every run executes one operation against an instance file or a packaged
example, prints a per-check pass/fail summary, and can store the full
certificate as JSON. Exit status: 0 all checks passed, 1 a check failed
or a library error (typed parse errors included) was raised, 2 usage errors.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import types

from ..errors import InvalidCertificate, QBorelError
from ..record import _clear_memos
from .certificates import Certificate, _spaced_text, jsonable, reverify

class UsageError(Exception):
    pass


# every flag by its dest: the keywords argparse takes for it; the option is
# --dest without a trailing underscore (map_ is --map)
FLAGS = {
    "input": {"help": "instance file (or certificate for verify)"},
    "out": {"help": "write the certificate (or export) here"},
    "gallery": {"help": "packaged example to draw inputs from"},
    "k": {"type": int, "help": "alphabet size for gallery models"},
    "n": {"type": int, "help": "word length for gallery models"},
    "t": {"type": int, "help": "agreement threshold for gallery models"},
    "K": {"type": int, "default": 32, "help": "level probe bound (int lane)"},
    "rel": {"help": "relation name in the instance file"},
    "maps": {"help": "comma-separated map names"},
    "map_": {"help": "single map name"},
    "g0": {"help": "seed partial injection name"},
    "action": {"help": "action name in the instance file"},
    "group": {"help": "group name in the instance file"},
    "sub": {"help": "comma-separated subgroup elements (labels or indices)"},
    "phi": {"help": "selector map name (default: least member)"},
    "x": {"type": int, "help": "chain witness source point"},
    "y": {"type": int, "help": "chain witness target point"},
    "expect": {"help": "expected value for the index or normalizer command"},
}

# the flags each command reads, in the order --help lists the commands. The
# first is where the input comes from: a required --input, one required
# choice of --input or --gallery, or gallery's positional name
FLAGS_OF = {
    "fm-classical": ("input", "out", "rel"),
    "fm-quotient": ("input|gallery", "out", "rel", "maps", "K"),
    "cover": ("input|gallery", "out", "rel", "maps", "g0", "K"),
    "uniformize": ("input", "out", "rel", "maps"),
    "generate": ("input", "out", "maps", "x", "y"),
    "tail": ("input", "out", "map_"),
    "index": ("input|gallery", "out", "k", "n", "t", "rel", "expect"),
    "selector": ("input", "out", "rel", "action", "phi"),
    "involution2": ("input", "out", "rel"),
    "action-orbits": ("input", "out", "action"),
    "cocycle": ("input|gallery", "out", "k", "n", "t", "action"),
    "normalizer": ("input|gallery", "out", "k", "n", "t", "group", "sub", "expect"),
    "gallery": ("gallery", "out", "k", "n", "t"),
    "verify": ("input", "out"),
    "export-graph": ("input", "out", "rel", "action"),
}


def _add_flag(parser, dest: str, **extra) -> None:
    parser.add_argument(f"--{dest.rstrip('_')}", dest=dest, **FLAGS[dest], **extra)


def build_parser() -> argparse.ArgumentParser:
    import argparse
    p = argparse.ArgumentParser(
        prog="qborel",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = p.add_subparsers(
        dest="command", required=True, metavar="COMMAND", help=f"one of: {', '.join(FLAGS_OF)}"
    )
    for command, (source, *dests) in FLAGS_OF.items():
        cp = commands.add_parser(command)
        if source == "gallery":
            cp.add_argument("gallery", help="packaged example to run")
        elif source == "input":
            _add_flag(cp, "input", required=True)
        else:
            choice = cp.add_mutually_exclusive_group(required=True)
            for dest in source.split("|"):
                _add_flag(choice, dest)
        for dest in dests:
            _add_flag(cp, dest)
    # fm-quotient and cover take no model flags: et_shift, their one example, has no parameters
    p.set_defaults(k=None, n=None, t=None)
    return p


_parser = functools.cache(build_parser)  # built on the first call, shared by later ones


def _plain_args(argv: list) -> types.SimpleNamespace | None:
    """What _parser().parse_args(argv) gives a plain argv, or None for argparse to read:
    help, abbreviations, =, "--", repeats, gallery NAME and errors. Plain is a command with
    an --input source, then exact --flag VALUE pairs of its flags, each once, no VALUE led
    by "-", one source given, and int() taking each int VALUE."""
    source, *dests = FLAGS_OF.get(argv[0] if argv else None, ("gallery",))
    flags = {f"--{dest.rstrip('_')}": dest for dest in (*source.split("|"), *dests)}
    values = dict(zip(argv[1::2], argv[2::2]))
    given = sum(f"--{dest}" in values for dest in source.split("|"))
    if (source == "gallery" or len(argv) != 2 * len(values) + 1 or given != 1
            or not values.keys() <= flags.keys() or any(v[:1] == "-" for v in values.values())):
        return None
    try:  # an int VALUE that int() refuses is an error argparse words
        read = {dest: FLAGS[dest].get("type", str)(values[flag]) if flag in values
                else FLAGS[dest].get("default") for flag, dest in flags.items()}
    except ValueError:
        return None
    return types.SimpleNamespace(**{"k": None, "n": None, "t": None, **read}, command=argv[0])


def _read_input(path: str) -> bytes:
    """Contents of an input file; a path that cannot be read is a usage error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None


def _write_output(path: str, text: str) -> None:
    """Write text to an output file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror or e}") from None


def cmd_verify(args, inst) -> tuple[int, list[str]]:
    try:
        text = _read_input(args.input).decode("utf-8")
    except UnicodeDecodeError as e:
        raise InvalidCertificate(f"certificate is not UTF-8 text at byte {e.start}") from None
    # a byte-order mark is read past, as an instance file's is
    cert = Certificate.from_json(text.removeprefix("\ufeff"))
    agree, rows, layout = reverify(cert)
    lines = [f"verify {args.input}: {len(rows)} stored checks"]
    if layout:
        lines.append(f"  [FAIL] layout: {layout}")
    for r in rows:
        mark = "pass" if r["agrees"] else "FAIL"
        lines.append(
            f"  [{mark}] {r['name']}: stored={r['stored']} recomputed={r['recomputed']}"
        )
    all_pass = agree and cert.ok and not layout
    lines.append(
        "verdicts reproduce and all checks pass"
        if all_pass
        else "verification failed"
    )
    if args.out:
        report = {"agrees": agree, "layout": layout, "rows": rows}
        _write_output(args.out, json.dumps(report, indent=2) + "\n")
    return (0 if all_pass else 1), lines


def _handler(name: str):
    """A COMMANDS entry: the handler `name` of the commands module, imported as it first runs."""
    def run(args, inst):
        from . import commands
        return getattr(commands, name)(args, inst)

    run.__name__ = run.__qualname__ = name
    return run


# each command's handler, cmd_ and its name with _ for -; it returns a
# Certificate, or (exit code, lines) when it prints no certificate summary.
# All but verify's live in the commands module
COMMANDS = {
    name: cmd_verify if name == "verify" else _handler(f"cmd_{name.replace('-', '_')}")
    for name in FLAGS_OF
}


def _expected_index(text: str):
    """The value of index --expect: an integer or 'unbounded'."""
    if text == "unbounded":
        return text
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"--expect takes an integer or 'unbounded', got {text!r}") from None


def _check_flags(args, command: str) -> None:
    """The usage errors the flag values alone show, raised before the instance is read."""
    if command in ("fm-quotient", "cover") and args.gallery not in (None, "et_shift"):
        raise UsageError(f"only the et_shift gallery instance feeds {command}")
    if command != "gallery" and args.input and (args.k, args.n, args.t) != (None,) * 3:
        raise UsageError("--k, --n and --t set a gallery model: pass them with --gallery")
    if command == "index" and args.expect is not None:
        _expected_index(args.expect)
    if command == "generate" and (args.x is None) != (args.y is None):
        raise UsageError("--x and --y go together: pass both endpoints or neither")


def _summary(cert: Certificate, out: str | None, texts: tuple) -> tuple[int, list[str]]:
    """Exit code and printed lines of a certifying run; texts are cert.texts()."""
    lines = cert.summary_lines()
    if cert.outputs:
        lines.append("outputs:")
        lines += [f"  {k} = {_spaced_text(texts[1].get(k), v)}" for k, v in cert.outputs.items()]
    if out:
        lines.append(f"certificate written to {out}")
    return (0 if cert.ok else 1), lines


def main(argv=None) -> int:
    # reference counting frees what a run makes, yet its allocations (a certificate
    # decoded, say) set off cycle collections that find nothing: the collector
    # pauses for the run, and is left as the caller had it on every way out
    collecting = gc.isenabled()
    gc.disable()
    try:
        # each run starts from empty memos, as a fresh process would
        _clear_memos()
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _plain_args(argv) or _parser().parse_args(argv)
        command = args.command
        try:
            _check_flags(args, command)
            # the instance file is read once: the text parsed is the text digested;
            # verify reads its --input as a certificate, gallery takes none, and
            # a command given --gallery reads the example's declarations instead
            text = inst = None
            if command not in ("verify", "gallery"):
                from . import commands, instance
                if args.input:
                    text = instance.decode_instance(_read_input(args.input))
                    inst = instance.parse_instance(text)
                else:
                    inst = commands._gallery_file(args)
            result = COMMANDS[command](args, inst)
            if isinstance(result, Certificate):
                if text is not None:
                    result.add_input(os.path.basename(args.input), text)
                texts = result.texts()  # one snapshot comparison, for the file and the summary
                # written before anything is printed: a failed write prints nothing
                if args.out:
                    _write_output(args.out, result.to_json(texts))
        except UsageError as e:
            _parser().error(str(e))
        except QBorelError as e:
            error = {
                "kind": type(e).__name__,
                "message": str(e),
                "witness": jsonable(getattr(e, "witness", None)),
            }
            code, lines = 1, [json.dumps({"error": error}, indent=2)]
        else:
            code, lines = result if isinstance(result, tuple) else _summary(result, args.out, texts)
        try:
            print("\n".join(lines))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader of stdout has gone; pointing stdout at devnull keeps the
            # interpreter's flush at exit quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
