"""Exit codes, stderr lines and output digests of many CLI calls of a source tree.

A development check that a change to the command line keeps every run's bytes
and names every message it changes.  Run it once on each tree, each in its own
process, and compare the outputs line by line:

    python3 tools/cli_digest.py --src PARENT_TREE > parent.txt
    python3 tools/cli_digest.py --src . > change.txt
    diff parent.txt change.txt

The calls are read from the ``tests/test_cli.py`` beside this tool, so both
trees run the same list: every case of its parametrized tests (the frozen
digests, the ``--init-json`` and ``--json`` files and the usage errors among
them), the frozen sweep ``_FROZEN_SWEEP`` and the custom ``--json`` run of
``_MIRROR_PAIR``.  A parametrized test that this tool cannot turn into calls,
or a name below that the test module lacks, stops the tool.  Each call runs
``nbodylab.cli.main`` of the ``--src`` tree in process, in a fresh temporary
directory that holds the JSON files the test writes.  One line per call gives
its label, exit code (or the exception it raised), stderr and the SHA-256 of
each file of its run directory; ``manifest.json`` is hashed without its
``wall_time_s`` value.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

_TESTS = Path(__file__).resolve().parent.parent / "tests" / "test_cli.py"


def _init(spec, *flags):
    return ["simulate", "--init-json", "orbit.json", *flags], {"orbit.json": json.dumps(spec)}


def _subspace(spec):
    return ["check-subspace", "--json", "subspace.json"], {"subspace.json": json.dumps(spec)}


# how each parametrized test turns one case into (argv, files) calls; the
# usage-error files are those of tests/test_cli.py, passed in as the last value
_PARAMETRIZED = {
    "test_refined_sweep_output_bytes_are_frozen": lambda jobs, _: [
        (["sweep", "--rho-max", "20", "--cells", "150", "--jobs", jobs], {})],
    "test_output_bytes_are_frozen": lambda argv, _: [(argv, {})],
    "test_float_range_and_stalled_sampling_exit_2_with_error_json": lambda argv, _: [
        (argv, {})],
    "test_init_json_integers_write_the_bytes_of_the_same_flags": lambda fields, flags: [
        _init(fields, "--samples", "11"),
        (["simulate", *flags, "--samples", "11"], {})],
    "test_simulate_rejects_typed_flags_its_model_does_not_read": lambda argv, _: [
        (["simulate", *argv, "--t-end", "1"], {})],
    "test_simulate_unreadable_init_json_exits_1": lambda content, _: [
        (["simulate", "--init-json", "orbit.json"],
         {} if content is None else {"orbit.json": content})],
    "test_simulate_mistyped_init_json_exits_1": lambda spec, _: [_init(spec)],
    "test_check_subspace_bad_json_exits_1": lambda spec, _: [_subspace(spec)],
    "test_usage_error_leaves_no_run_directory": lambda argv, spec: [
        (argv, {} if spec is None else {"subspace.json": json.dumps(spec)})],
    "test_bad_number_or_body_input_exits_1_with_one_line": lambda argv, _, files: [
        (argv, files)],
    "test_a_number_list_may_start_with_a_minus": lambda argv: [(argv, {})],
    "test_an_unknown_flag_next_to_a_negative_list_exits_1": lambda argv, _: [(argv, {})],
    "test_positive_lists_parse_as_with_argparse_own_negative_number_test": lambda argv: [
        (argv, {})],
}


def _calls():
    spec = importlib.util.spec_from_file_location("cli_digest_cases", _TESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    marks = {name: mark for name, test in vars(module).items() if name.startswith("test_")
             for mark in getattr(test, "pytestmark", ()) if mark.name == "parametrize"}
    if marks.keys() != _PARAMETRIZED.keys():
        raise SystemExit(f"parametrized tests of {_TESTS} without calls here: "
                         f"{sorted(marks.keys() - _PARAMETRIZED.keys())}; calls here without "
                         f"a test: {sorted(_PARAMETRIZED.keys() - marks.keys())}")
    files = {name: json.dumps(spec) for name, spec in module._USAGE_FILES.items()}
    calls = [("frozen-sweep", module._FROZEN_SWEEP, {}),
             ("custom-json", *_subspace(module._MIRROR_PAIR))]
    for name, to_calls in _PARAMETRIZED.items():
        for i, values in enumerate(marks[name].args[1]):
            values = values if isinstance(values, tuple) else (values,)
            if name == "test_bad_number_or_body_input_exits_1_with_one_line":
                values = (*values, files)
            for j, call in enumerate(to_calls(*values)):
                calls.append((f"{name}[{i}.{j}]", *call))
    return calls


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = re.sub(rb'"wall_time_s": [^,}\n]+', b'"wall_time_s": null', data)
    return hashlib.sha256(data).hexdigest()


def _run(main, argv, files) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        here = os.getcwd()
        os.chdir(tmp)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main([*argv, "--out", "runs"])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback: record it and go on
                    code = f"raised {type(exc).__name__}: {str(exc)!r}"
            outputs = sorted(p for p in Path("runs").glob("*/*") if p.is_file())
            hashed = " ".join(f"{p.name}={_digest(p)}" for p in outputs)
        finally:
            os.chdir(here)
    return f"exit {code} | {err.getvalue().strip()!r} | {hashed}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True, help="root of the source tree")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve() / "src"))
    from nbodylab.cli import main as cli_main

    for label, call_argv, files in _calls():
        print(f"{label} {' '.join(call_argv)} | {_run(cli_main, call_argv, files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
