"""The benchmark's seed-1 behaviour lock, checked in process on the exact outputs.

Each item of the exact-analyze and scan-map workloads is built by
`bench/workloads.py`, run through `cli.main`, and its outputs' sha256 are
compared with `bench/digests/<workload>.json`.  Both files are only read.
Portrait SVGs are left to the bench: their bytes depend on libm `pow` (see
test_output_lock.py).
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from phaseatlas import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _outputs(item):
    outputs = []
    for argv in item.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        assert code == 0, (item.id, argv, err.getvalue())
        outputs.append(out.getvalue())
    for k, path in enumerate(item.output_files):
        if path is not None:
            outputs[k] = Path(path).read_text(encoding="utf-8")
    return outputs


@pytest.mark.parametrize("workload", ["exact-analyze", "scan-map"])
def test_seed_1_outputs_match_the_bench_digests(tmp_path, workload):
    lock = json.loads((BENCH / "digests" / f"{workload}.json").read_text(encoding="utf-8"))
    assert (lock["workload"], lock["seed"]) == (workload, 1)
    items = _workloads().build(workload, 1, tmp_path)
    assert {item.id for item in items} == set(lock["items"])
    for item in items:
        outputs = _outputs(item)
        assert item.check(outputs) is None, item.id
        digests = [hashlib.sha256(o.encode("utf-8")).hexdigest() for o in outputs]
        assert digests == lock["items"][item.id], item.id
