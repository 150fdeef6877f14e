"""Checks of the benchmark itself: generators, tracing wrappers, behaviour lock.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from fractions import Fraction

import pytest

import layers
import run
import workloads
from phaseatlas import atlas, cli

SEEDS = (1, 2, 3, 7, 11)


@pytest.mark.parametrize("seed", SEEDS)
def test_region_points_lie_in_their_region(seed):
    rng = workloads.random.Random(seed)
    for region in workloads.REGIONS:
        for _ in range(5):
            a, b = workloads.region_point(rng, region)
            assert atlas.classify_region(a, b) == region, (a, b)


@pytest.mark.parametrize("digits", (6, 8, 10))
def test_decimals_keep_every_digit(digits):
    rng = workloads.random.Random(digits)
    for region in ("2a", "2b", "3a", "3c", "3g", "3h", "3l"):
        a, b = workloads.region_point(
            rng, region, lambda lo, hi: workloads._decimal(rng, lo, hi, digits))
        text = next(v for v in (a, b) if isinstance(v, str))
        assert len(text.split(".")[1]) == digits
        assert Fraction(text).denominator == 10**digits
        assert atlas.classify_region(Fraction(a), Fraction(b)) == region


def test_exact_analyze_is_one_third_decimals(workdir):
    items = workloads.build("exact-analyze", 1, workdir)
    decimals = [i for i in items if i.id.startswith(("dec", "long"))]
    assert len(decimals) * 3 == len(items)
    assert {i.id.split("-", 1)[1] for i in items if i.id.startswith("region-")} == set(
        workloads.REGIONS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, workdir):
    first = [i.calls for i in workloads.build(name, 5, workdir)]
    assert first == [i.calls for i in workloads.build(name, 5, workdir)]
    assert first != [i.calls for i in workloads.build(name, 6, workdir)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_lock_covers_every_default_seed_item(name, workdir):
    ids = [i.id for i in workloads.build(name, run.DEFAULT_SEED, workdir)]
    assert sorted(ids) == sorted(run.load_lock(name, run.DEFAULT_SEED))


def _originals():
    import phaseatlas.cli  # noqa: F401

    return {
        layers.span_name(m, a): getattr(*layers._resolve(m, a)) for m, a in layers.SPANS
    }


def _phaseatlas_modules():
    return [m for n, m in sys.modules.items() if n == "phaseatlas" or n.startswith("phaseatlas.")]


def test_every_binding_is_replaced_and_restored():
    originals = _originals()
    bound_in = {
        name: {m.__name__ for m in _phaseatlas_modules()
               if any(v is original for v in vars(m).values())}
        for name, original in originals.items()
    }
    assert {"phaseatlas.cli", "phaseatlas.atlas", "phaseatlas.equilibria",
            "phaseatlas.desing"} <= bound_in["desing.cdk_poly_field"]
    assert {"phaseatlas.polycore", "phaseatlas.desing"} <= bound_in["polycore.poly_gcd"]

    with layers.Tracer():
        for name, original in originals.items():
            for module in _phaseatlas_modules():
                assert all(v is not original for v in vars(module).values()), (name, module)
            for modname in bound_in[name]:
                module = sys.modules[modname]
                wrapped = [v for v in vars(module).values()
                           if getattr(v, "__bench_original__", None) is original]
                assert wrapped, (name, modname)
        from phaseatlas.desing import PolyField
        from phaseatlas.portrait import VectorDocument

        assert hasattr(PolyField.compiled, "__bench_original__")
        assert hasattr(VectorDocument.to_svg, "__bench_original__")
    assert _originals() == originals
    from phaseatlas.desing import PolyField

    assert not hasattr(PolyField.compiled, "__bench_original__")


def _small_items(workdir):
    analyze = workloads.build("exact-analyze", 3, workdir)
    portraits = workloads.build("portrait-render", 3, workdir)
    return (
        [i for i in analyze if i.id in ("region-3h", "dec6-3g", "spec-cdk", "spec-cubic")]
        + [i for i in portraits if i.id in ("portrait-3b-1", "portrait-spec-cubic")]
        + workloads._scan_map(3, workdir, resolution=12)[:1]
    )


def test_traced_outputs_are_byte_identical(workdir):
    items = _small_items(workdir)
    runner = run.Runner(items, None)
    plain = [runner._run_item(item, cli)[1] for item in items]
    with layers.Tracer() as tracer:
        traced = [runner._run_item(item, cli)[1] for item in items]
    assert traced == plain
    for item, outputs in zip(items, plain):
        assert item.check(outputs) is None, item.id
    got = tracer.metrics(1)
    for name in ("polycore.poly_gcd.calls", "dynamics.integrate.calls", "dynamics.field_evals",
                 "atlas.classify_region.calls", "equilibria.find_stationary.points",
                 "portrait.svg_bytes", "portrait.render_region_map.calls"):
        assert got[name][0] > 0, name
    steps = got["dynamics.accepted_steps"][0]
    assert sum(got[f"dynamics.termination.{k}"][0] for k in layers.TERMINATIONS) == got[
        "dynamics.integrate.calls"][0]
    assert 6 <= got["dynamics.field_evals"][0] / steps < 20
    assert got["cli.main.self_s"][0] < got["cli.main.total_s"][0]


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "items_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_scaling_uses_the_median_calibration_around_each_time(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_WINDOW", 2)
    ref = run.REFERENCE_CALIBRATION_S
    # times[i] sits between calibrations[i] and [i + 1]; a preempted kernel (9 * ref) is ignored
    calibrations = [ref, 2 * ref, 2 * ref, 9 * ref, 2 * ref, 2 * ref]
    times = [1.0, None, 4.0, 2.0, 6.0]
    assert run.scale_to_reference(times, calibrations) == [0.5, 2.0, 1.0, 3.0]


def test_calibration_kernel_is_fixed_work():
    assert run._calibration_kernel() == run._calibration_kernel()
    assert run.calibration_seconds() > 0


def test_percentile_interpolates():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile([0, 10], 90) == 9
