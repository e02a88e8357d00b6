"""Run directories, schema-validated JSON reports, and CSV emission.

Every CLI invocation lands in its own directory named by subcommand,
UTC timestamp, and a short parameter digest.  The run claims that name with
an exclusive ``mkdir`` when it writes its first file; if another run already
holds it, the first free ``-2``, ``-3``, ... suffix is taken, so two identical
runs in the same second never share a directory.  JSON payloads are validated
against the schemas shipped under ``nbodylab/schemas`` before they reach
disk; floats round-trip exactly because both the JSON and CSV writers emit
Python's shortest repr (up to 17 significant digits).

Every file goes through one private ``RunReport._write``, which claims the
run directory, writes text chunks as they come and records the file for the
manifest digests.  ``write_csv`` formats small tables with the csv module;
``sweep.csv`` is streamed through ``_write`` one kernel chunk at a time, with
the same shortest-repr bytes (see ``cli._sweep_csv_chunks``).  ``sweep
--jobs`` parallelises only the kernel, never the writing.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__


def jsonable(obj):
    """Recursively convert numpy scalars/arrays into plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """Validator for a shipped schema, built once after checking the schema."""
    ref = resources.files("nbodylab.schemas").joinpath(f"{name}.schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_payload(payload: dict, schema_name: str) -> None:
    """Raise jsonschema's best-matching ValidationError if the payload fails."""
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(payload))
    if error is not None:
        raise error


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def params_digest(subcommand: str, params: dict) -> str:
    blob = json.dumps({"subcommand": subcommand, "parameters": params},
                      sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:8]


class RunReport:
    """Output directory of one CLI run plus its manifest bookkeeping.

    The run directory is claimed by its first file, so a usage error leaves
    none; until then ``directory`` is the name the run will try first.
    """

    def __init__(self, base: str | Path, subcommand: str, params: dict):
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        name = f"{subcommand}-{stamp}-{params_digest(subcommand, params)}"
        Path(base).mkdir(parents=True, exist_ok=True)
        self.directory = Path(base) / name
        self.subcommand = subcommand
        self.params = params
        self._t0 = time.monotonic()
        self._outputs: list[Path] = []
        self._claimed = False

    def _path(self, name: str) -> Path:
        """Path of an output file, claiming the run directory on first use."""
        if not self._claimed:
            base = self.directory
            for k in itertools.count(1):
                candidate = base if k == 1 else base.with_name(f"{base.name}-{k}")
                try:
                    candidate.mkdir()
                except FileExistsError:
                    continue
                self.directory = candidate
                self._claimed = True
                break
        return self.directory / name

    def _write(self, name: str, chunks) -> Path:
        """Write an output file from text chunks and record it for the manifest.

        Every output goes through here; the chunks are written as they come,
        so a caller can stream a large file without holding all of its text.
        """
        path = self._path(name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        self._outputs.append(path)
        return path

    def write_json(self, name: str, payload: dict, schema_name: str) -> Path:
        validate_payload(payload, schema_name)
        return self._write(name, (json.dumps(payload, indent=2), "\n"))

    def write_csv(self, name: str, header, rows) -> Path:
        """Write rows of plain Python or numpy float64/int scalars, or strings.

        The csv module writes each float as its shortest repr (exact round trip).
        """
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return self._write(name, (text.getvalue(),))

    def finish(self) -> Path:
        manifest = {
            "subcommand": self.subcommand,
            "parameters": self.params,
            "tool_version": __version__,
            "wall_time_s": time.monotonic() - self._t0,
            "outputs": {p.name: sha256_file(p) for p in self._outputs},
        }
        return self.write_json("manifest.json", manifest, "manifest")
