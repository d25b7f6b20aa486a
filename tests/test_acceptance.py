"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import csv
import statistics
import time

import numpy as np

from tlc.analysis import calibrate_windows, run_shift_experiment
from tlc.analysis import Layer, LayerGraph
from tlc.cli import main
from tlc.fusion import (
    AttnParams,
    TilePlan,
    apply_and_fuse,
    coverage_counts,
    plan_tiles,
    transposed_attention,
)
from tlc.integral import (
    brute_force_local_mean,
    local_aggregate,
    local_max,
    local_mean_var,
    strided_local_mean,
)
from tlc.modules import (
    NormParams,
    SeParams,
    cbam_channel_forward,
    ge_forward,
    norm_forward,
    se_forward,
)
from tlc.tensor import FeatureMap, WindowSpec, write_tensor

from conftest import sliding_stats_oracle


def report(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}")
    assert ok, f"criterion {num}: {name}"


def _random_se(rng, c, ratio):
    hidden = c // ratio
    return SeParams(rng.standard_normal((c, hidden)),
                    rng.standard_normal((hidden, c)), ratio)


def _forward(kind, x, rng, window):
    c = x.channels
    if kind == "se":
        return se_forward(x, _random_se(rng, c, 2), window)
    if kind == "cbam":
        return cbam_channel_forward(x, _random_se(rng, c, 2), window)
    if kind == "ge":
        return ge_forward(x, window)
    if kind in ("in", "gn"):
        groups = c if kind == "in" else (2 if c % 2 == 0 else 1)
        p = NormParams(rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c),
                       groups=groups)
        return norm_forward(x, p, window)
    raise ValueError(kind)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.time()
    ok = True
    for _ in range(200):
        h = int(rng.integers(1, 25))
        w = int(rng.integers(1, 25))
        x = rng.standard_normal((h, w))
        for k in (1, 2, 3, 5, 8, 24, 31):
            spec = WindowSpec(k, k)
            omean, ovar, omax = sliding_stats_oracle(x, spec)
            mean = local_aggregate(x, spec)
            _, var = local_mean_var(x, spec)
            mx = local_max(x, spec)
            ok &= float(np.max(np.abs(mean - omean))) < 1e-9
            ok &= float(np.max(np.abs(var - ovar))) < 1e-7
            ok &= bool(np.array_equal(mx, omax))
    ok &= time.time() - start < 60
    report(1, "windowed mean/var/max match brute-force oracles", ok)


def test_criterion_2_global_reduction():
    rng = np.random.default_rng(2)
    ok = True
    for kind in ("se", "in", "gn", "ge", "cbam"):
        for _ in range(50):
            c = 4
            h = int(rng.integers(2, 12))
            w = int(rng.integers(2, 12))
            x = FeatureMap(rng.standard_normal((c, h, w)))
            seed = int(rng.integers(0, 2**31))
            g = _forward(kind, x, np.random.default_rng(seed), None)
            l = _forward(kind, x, np.random.default_rng(seed),
                         WindowSpec(h + 3, w + 3))
            ok &= float(np.max(np.abs(g.data - l.data))) < 1e-7
    # Attention: a covering tile degenerates to the global operator.
    p = AttnParams(1.0)
    for _ in range(50):
        c = int(rng.integers(1, 5))
        h = int(rng.integers(2, 10))
        w = int(rng.integers(2, 10))
        x = FeatureMap(rng.standard_normal((c, h, w)))
        plan = plan_tiles(h, w, (h + 2, w + 2), (h + 2, w + 2))
        fused = apply_and_fuse(x, plan, lambda win: transposed_attention(win, p))
        ok &= float(np.max(np.abs(fused.data - transposed_attention(x.data, p)))) < 1e-7
    report(2, "local with covering window equals global for every module", ok)


def test_criterion_3_interior_crop_law():
    rng = np.random.default_rng(3)
    kinds = ("se", "in", "gn", "ge", "cbam")
    ok = True
    for i in range(100):
        kind = kinds[i % len(kinds)]
        c, h, w, k = 4, 14, 14, 5
        x = FeatureMap(rng.standard_normal((c, h, w)))
        seed = int(rng.integers(0, 2**31))
        local = _forward(kind, x, np.random.default_rng(seed), WindowSpec(k, k))
        t_r = int(rng.integers(0, h - k + 1))
        t_c = int(rng.integers(0, w - k + 1))
        cy, cx = t_r + (k - 1) // 2, t_c + (k - 1) // 2
        crop = FeatureMap(x.data[:, t_r:t_r + k, t_c:t_c + k].copy())
        ref = _forward(kind, crop, np.random.default_rng(seed), None)
        err = float(np.max(np.abs(local.data[:, cy, cx]
                                  - ref.data[:, cy - t_r, cx - t_c])))
        ok &= err < 1e-6
    report(3, "interior local output equals global on the centered crop", ok)


def test_criterion_4_complexity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((512, 512))
    start = time.time()
    paths = {}
    for k in (8, 32, 128):
        spec = WindowSpec(k, k)
        paths["integral", k] = lambda spec=spec: local_aggregate(x, spec)
        paths["brute", k] = lambda spec=spec: brute_force_local_mean(x, spec)
    times = {key: [] for key in paths}
    # Round-robin, one rep of every size and path at a time (as cmd_bench
    # does), so a burst of machine noise slows every size a little rather
    # than one size a lot.
    for _ in range(5):
        for key, fn in paths.items():
            t0 = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - t0)
    med = {"integral": {}, "brute": {}}
    for (name, k), ts in times.items():
        med[name][k] = statistics.median(ts)
    ratio_int = max(med["integral"].values()) / min(med["integral"].values())
    ratio_brute = med["brute"][128] / med["brute"][8]
    elapsed = time.time() - start
    ok = ratio_int < 1.5 and ratio_brute > 10 and elapsed < 120
    print(f"  integral ratio {ratio_int:.2f}, brute ratio {ratio_brute:.1f}, "
          f"{elapsed:.1f}s")
    report(4, "integral path is window-size independent, brute force is not", ok)


def test_criterion_5_distribution_shift_reduction():
    start = time.time()
    rep = run_shift_experiment(42, n=500)
    ok = rep.ks_train_tlc < rep.ks_train_test
    ok &= rep.test.values.std() < rep.train.values.std()
    ok &= time.time() - start < 60
    print(f"  KS(train,test)={rep.ks_train_test:.3f} "
          f"KS(train,tlc)={rep.ks_train_tlc:.3f}")
    report(5, "windowed pooling restores the patch-time statistic distribution", ok)


def test_criterion_6_negligible_macs(tmp_path):
    rng = np.random.default_rng(6)
    c, ratio = 16, 16
    hidden = c // ratio
    write_tensor(FeatureMap(rng.standard_normal((c, hidden, 1))),
                 tmp_path / "reduce.tlct")
    write_tensor(FeatureMap(rng.standard_normal((hidden, c, 1))),
                 tmp_path / "expand.tlct")
    manifest = tmp_path / "se.params"
    manifest.write_text("se.reduce=reduce.tlct\nse.expand=expand.tlct\n")
    inp = tmp_path / "x.tlct"
    write_tensor(FeatureMap(rng.standard_normal((c, 512, 512))), inp)
    ok = True
    overheads = {}
    for kind in ("se", "cbam"):
        outdir = tmp_path / kind
        code = main(["convert", "--module", kind, "--input", str(inp),
                     "--params", str(manifest), "--outdir", str(outdir),
                     "--k", "384", "384"])
        ok &= code == 0
        with open(outdir / "report.csv") as fh:
            rows = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        overheads[kind] = float(rows["local_overhead"])
        ok &= 0 < overheads[kind] < 0.002
    print(f"  overhead se={overheads.get('se'):.5f} "
          f"cbam={overheads.get('cbam'):.5f}")
    report(6, "local SE/CBAM cost under 0.2% of the host budget", ok)


def test_criterion_7_fusion_correctness():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        h = int(rng.integers(1, 30))
        w = int(rng.integers(1, 30))
        k = (int(rng.integers(1, 34)), int(rng.integers(1, 34)))
        s = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        plan = plan_tiles(h, w, k, s)
        counts = coverage_counts(plan)
        # Independent enumeration of coverage.
        direct = np.zeros((h, w), dtype=int)
        k_h, k_w = plan.window
        for r, c in plan.placements:
            for i in range(r, r + k_h):
                for j in range(c, c + k_w):
                    direct[i, j] += 1
        ok &= bool(np.array_equal(counts, direct))
        ok &= bool(np.all(counts >= 1))
    x = FeatureMap(rng.standard_normal((2, 21, 19)))
    plan = plan_tiles(21, 19, (8, 7), (5, 4))
    fused = apply_and_fuse(x, plan, lambda win: win)
    ok &= float(np.max(np.abs(fused.data - x.data))) <= 1e-12
    reordered = TilePlan(plan.window, plan.stride,
                         tuple(reversed(plan.placements)), plan.shape)
    a = apply_and_fuse(x, plan, np.tanh)
    b = apply_and_fuse(x, reordered, np.tanh)
    ok &= float(np.max(np.abs(a.data - b.data))) <= 1e-12
    report(7, "overlap fusion: identity, coverage counts, order independence", ok)


def test_criterion_8_local_beats_global_demo(tmp_path):
    psnrs = {}
    for noise in ("two-region", "uniform"):
        outdir = tmp_path / noise
        assert main(["demo", "--seed", "42", "--noise", noise, "--k", "32", "32",
                     "--outdir", str(outdir)]) == 0
        with open(outdir / "psnr.csv") as fh:
            psnrs[noise] = {r[0]: float(r[1]) for r in list(csv.reader(fh))[1:]}
    margin = psnrs["two-region"]["local"] - psnrs["two-region"]["global"]
    control = abs(psnrs["uniform"]["local"] - psnrs["uniform"]["global"])
    ok = margin >= 1.0 and control <= 0.1
    print(f"  two-region margin {margin:.2f} dB, uniform control {control:.4f} dB")
    report(8, "local statistics beat global by >= 1 dB where noise varies", ok)


def test_criterion_9_strided_approximation():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(10):
        x = rng.standard_normal((24, 24))
        spec = WindowSpec(7, 6)
        ok &= bool(np.array_equal(strided_local_mean(x, spec, 1),
                                  local_aggregate(x, spec)))
    const = np.full((32, 32), 2.75)
    for r in (1, 2, 3, 4):
        ok &= bool(np.all(strided_local_mean(const, WindowSpec(9, 9), r) == 2.75))
    ramp = (np.arange(64)[:, None] + 0.5 * np.arange(64)[None, :]).astype(float)
    spec = WindowSpec(16, 16)
    exact = local_aggregate(ramp, spec)
    errs = [float(np.max(np.abs(strided_local_mean(ramp, spec, r) - exact)))
            for r in (2, 4, 8)]
    ok &= errs[0] <= errs[1] <= errs[2]
    report(9, "strided approximation: exact at r=1, error monotone in r", ok)


def test_criterion_10_calibration():
    graph = LayerGraph((
        Layer("full", 1.0), Layer("half", 0.5), Layer("quarter", 0.25),
    ))
    sizes = calibrate_windows(graph, 384, 384)
    ok = sizes == {"full": (384, 384), "half": (192, 192), "quarter": (96, 96)}
    rng = np.random.default_rng(10)
    for _ in range(100):
        n_layers = int(rng.integers(1, 5))
        layers = tuple(
            Layer(f"l{i}", float(rng.uniform(0.05, 1.0)))
            for i in range(n_layers)
        )
        g = LayerGraph(layers)
        h1 = int(rng.integers(64, 512))
        w1 = int(rng.integers(64, 512))
        h2 = h1 + int(rng.integers(0, 512))
        w2 = w1 + int(rng.integers(0, 512))
        small = calibrate_windows(g, h1, w1)
        large = calibrate_windows(g, h2, w2)
        for name in small:
            ok &= large[name][0] >= small[name][0]
            ok &= large[name][1] >= small[name][1]
    report(10, "calibration: 384 -> (384,192,96) and monotone in input size", ok)
