"""Inputs, command cycles and output checks for the four workloads.

Each workload writes its inputs from the seed alone, then repeats a fixed
cycle of ``tlc`` commands. Every command's output is checked against a
reference that does not go through the code path being timed:

* ``convert``: ``local.tlct`` at interior pixels against the library's
  global-mode module on the centred window-sized crop (the crop law).
* ``fuse``: ``fused.tlct`` at sampled pixels against an average, written
  here, of this file's own attention over every tile covering the pixel.
* ``stats``: the shift is reduced in ``ks.csv``, and ``ks.csv`` agrees
  with a KS distance recomputed here from ``samples.csv``.
* ``demo``: ``restored_local.tlct`` at interior pixels against a
  sliding-window Wiener gain written here; with two-region noise, local
  PSNR beats global PSNR in ``psnr.csv``.

TLCT files are read and written here with ``struct`` and ``numpy`` so
that input generation and checking never call the library's I/O.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tlc import demo, modules
from tlc.tensor import FeatureMap

_HEADER = struct.Struct("<4sIIII")

# An output value fails its check beyond this error; float32 storage alone
# gives about 6e-8 relative.
REL_TOL = 1e-5
# Errors are also expressed in float32 spacings of max(|ref|, floor), so
# near-zero references do not turn tiny absolute errors into huge counts.
ULP_FLOOR = 2.0 ** -10

SE_RATIO = 16
GN_GROUPS = 8
NORM_EPS = 1e-5
CONVERT_MODULES = ("se", "cbam", "gn", "in", "ge")
STATS_N = 500
DEMO_NOISE = ("none", "uniform", "two-region")
DEMO_K = 32


class CheckFailed(Exception):
    pass


def write_tlct(path: Path, arr: np.ndarray) -> None:
    c, h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"TLCT", 1, c, h, w))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_tlct(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, version, c, h, w = _HEADER.unpack_from(raw)
    if magic != b"TLCT" or version != 1 or len(raw) != _HEADER.size + 4 * c * h * w:
        raise CheckFailed(f"{path}: malformed TLCT file")
    return np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(c, h, w)


def read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class Errors:
    """Worst error over every checked output value of a run."""

    def __init__(self):
        self.max_abs = 0.0
        self.max_ulp = 0.0
        self.values = 0

    def add(self, got, ref, what: str) -> None:
        got = np.asarray(got, dtype=np.float64)
        ref = np.asarray(ref, dtype=np.float64)
        if got.shape != ref.shape or not np.all(np.isfinite(got)):
            raise CheckFailed(f"{what}: shape {got.shape} vs {ref.shape} or non-finite")
        err = np.abs(got - ref)
        if np.any(err > REL_TOL * (1.0 + np.abs(ref))):
            raise CheckFailed(f"{what}: error {err.max():.3g} above tolerance")
        spacing = np.spacing(np.maximum(np.abs(ref), ULP_FLOOR).astype(np.float32))
        self.max_abs = max(self.max_abs, float(err.max()))
        self.max_ulp = max(self.max_ulp, float((err / spacing.astype(np.float64)).max()))
        self.values += err.size


@dataclass
class Op:
    """One command of a workload's cycle."""

    kind: str  # unique within the cycle, e.g. "convert.se@512"
    metric: str  # end-to-end metric the latency pools into
    argv: list[str]
    vox: int  # input values the command processes
    outdir: Path
    check: Callable[[Path, Errors], None]


# --- convert -----------------------------------------------------------------


class ConvertWorkload:
    """``tlc convert`` over every module on C-channel maps of given sizes."""

    k = 96
    pixels = 16

    def __init__(self, seed: int, tag: int, channels: int, sizes: tuple[int, ...]):
        self.seed, self.tag = seed, tag
        self.c, self.sizes = channels, sizes
        self._refs = {}

    def describe(self) -> dict:
        return {"inputs": [[self.c, s, s] for s in self.sizes], "k": [self.k, self.k],
                "modules": list(CONVERT_MODULES), "gn_groups": GN_GROUPS,
                "se_ratio": SE_RATIO, "crop_check_pixels": self.pixels}

    def generate(self, d: Path) -> list[Path]:
        rng = np.random.default_rng([self.seed, self.tag])
        c, hidden = self.c, self.c // SE_RATIO
        self.inputs = {}
        for s in self.sizes:
            scale = rng.uniform(0.5, 2.0, size=(c, 1, 1)).astype(np.float32)
            offset = rng.uniform(-1.0, 1.0, size=(c, 1, 1)).astype(np.float32)
            x = rng.standard_normal((c, s, s), dtype=np.float32) * scale + offset
            self.inputs[s] = x
            write_tlct(d / f"x{s}.tlct", x)
        arrays = {
            "se_reduce": rng.standard_normal((c, hidden, 1)) / math.sqrt(c),
            "se_expand": rng.standard_normal((hidden, c, 1)) / math.sqrt(hidden),
            "norm_gamma": rng.uniform(0.5, 1.5, size=(c, 1, 1)),
            "norm_beta": rng.uniform(-0.5, 0.5, size=(c, 1, 1)),
        }
        for name, arr in arrays.items():
            write_tlct(d / f"{name}.tlct", arr)
        # The reference modules see the parameters as the CLI reads them.
        a = {k: v.astype(np.float32).astype(np.float64)[..., 0] for k, v in arrays.items()}
        self.se_params = modules.SeParams(a["se_reduce"], a["se_expand"], ratio=SE_RATIO)
        self.norm_params = {
            kind: modules.NormParams(a["norm_gamma"].ravel(), a["norm_beta"].ravel(),
                                     eps=NORM_EPS, groups=g)
            for kind, g in (("gn", GN_GROUPS), ("in", c))
        }
        (d / "se.params").write_text("se.reduce=se_reduce.tlct\nse.expand=se_expand.tlct\n")
        (d / "norm.params").write_text(
            f"norm.gamma=norm_gamma.tlct\nnorm.beta=norm_beta.tlct\n"
            f"norm.groups={GN_GROUPS}\nnorm.eps={NORM_EPS}\n")
        self.dir = d
        return [d / f"x{s}.tlct" for s in self.sizes] + [
            d / f"{n}.tlct" for n in arrays] + [d / "se.params", d / "norm.params"]

    def _argv(self, module: str, inp: Path, outdir: Path) -> list[str]:
        argv = ["convert", "--module", module, "--input", str(inp),
                "--outdir", str(outdir), "--k", str(self.k), str(self.k)]
        if module in ("se", "cbam"):
            argv += ["--params", str(self.dir / "se.params")]
        elif module in ("gn", "in"):
            argv += ["--params", str(self.dir / "norm.params")]
        return argv

    def warmups(self, work: Path) -> list[list[str]]:
        small = self.dir / "warm.tlct"
        write_tlct(small, self.inputs[self.sizes[0]][:, :40, :40])
        return [self._argv(m, small, work / "warm") for m in CONVERT_MODULES]

    def cycle(self, work: Path) -> list[Op]:
        ops = []
        for s in self.sizes:
            for m in CONVERT_MODULES:
                kind = f"convert.{m}@{s}"
                metric = "convert.norm_ms" if m in ("gn", "in") else f"convert.{m}_ms"
                out = work / kind
                ops.append(Op(kind, metric, self._argv(m, self.dir / f"x{s}.tlct", out),
                              self.c * s * s, out, self._checker(m, s)))
        return ops

    def _forward_global(self, module: str, crop: FeatureMap) -> np.ndarray:
        if module == "se":
            return modules.se_forward(crop, self.se_params).data
        if module == "cbam":
            return modules.cbam_channel_forward(crop, self.se_params).data
        if module == "ge":
            return modules.ge_forward(crop).data
        return modules.norm_forward(crop, self.norm_params[module]).data

    def _reference(self, module: str, s: int):
        key = (module, s)
        if key not in self._refs:
            rng = np.random.default_rng([self.seed, self.tag, s, CONVERT_MODULES.index(module)])
            k = min(self.k, s)
            tops = rng.integers(0, s - k + 1, size=(self.pixels, 2))
            x = self.inputs[s]
            c0 = (k - 1) // 2
            refs = [self._forward_global(module, FeatureMap(
                x[:, r:r + k, q:q + k].astype(np.float64)))[:, c0, c0] for r, q in tops]
            self._refs[key] = (tops + c0, np.stack(refs))
        return self._refs[key]

    def _checker(self, module: str, s: int):
        def check(outdir: Path, errors: Errors) -> None:
            out = read_tlct(outdir / "local.tlct")
            if out.shape != (self.c, s, s):
                raise CheckFailed(f"local.tlct shape {out.shape}")
            centres, ref = self._reference(module, s)
            got = out[:, centres[:, 0], centres[:, 1]].T
            errors.add(got, ref, f"convert {module} {s}x{s} crop law")
        return check

    def module_macs(self) -> dict[str, int]:
        """Local MACs of one cycle per module, from the library's accounting."""
        return {m: sum(modules.module_macs(m, self.c, s, s, SE_RATIO)["local_macs"]
                       for s in self.sizes) for m in CONVERT_MODULES}


# --- fuse --------------------------------------------------------------------


def _axis_starts(length: int, k: int, s: int) -> list[int]:
    starts = list(range(0, length - k + 1, s))
    if starts[-1] != length - k:
        starts.append(length - k)
    return starts


def _attention(tile: np.ndarray, temperature: float) -> np.ndarray:
    c = tile.shape[0]
    v = tile.reshape(c, -1)
    norm = np.sqrt((v * v).sum(axis=1, keepdims=True))
    q = v / np.where(norm > 0, norm, 1.0)
    logits = temperature * (q @ q.T)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return ((e / e.sum(axis=1, keepdims=True)) @ v).reshape(tile.shape)


class FuseWorkload:
    """``tlc fuse`` with the channel-attention transform on one large map."""

    c, size, k, stride, temperature = 64, 512, 64, 32, 1.0
    pixels = 16

    def __init__(self, seed: int, tag: int):
        self.seed, self.tag = seed, tag
        self._ref = None

    def describe(self) -> dict:
        n = len(_axis_starts(self.size, self.k, self.stride))
        return {"inputs": [[self.c, self.size, self.size]], "k": [self.k, self.k],
                "stride": [self.stride, self.stride], "tiles": n * n,
                "transform": "attention", "check_pixels": self.pixels + 2}

    def generate(self, d: Path) -> list[Path]:
        rng = np.random.default_rng([self.seed, self.tag])
        scale = rng.uniform(0.5, 2.0, size=(self.c, 1, 1)).astype(np.float32)
        self.x = rng.standard_normal((self.c, self.size, self.size), dtype=np.float32) * scale
        self.dir = d
        write_tlct(d / "x.tlct", self.x)
        return [d / "x.tlct"]

    def _argv(self, inp: Path, outdir: Path) -> list[str]:
        return ["fuse", "--input", str(inp), "--outdir", str(outdir),
                "--transform", "attention", "--k", str(self.k), str(self.k),
                "--stride", str(self.stride), str(self.stride)]

    def warmups(self, work: Path) -> list[list[str]]:
        small = self.dir / "warm.tlct"
        write_tlct(small, self.x[:, :96, :96])
        return [self._argv(small, work / "warm")]

    def cycle(self, work: Path) -> list[Op]:
        out = work / "fuse"
        return [Op("fuse", "fuse_ms", self._argv(self.dir / "x.tlct", out),
                   self.c * self.size * self.size, out, self._check)]

    def _reference(self):
        if self._ref is None:
            rng = np.random.default_rng([self.seed, self.tag, 1])
            last = self.size - 1
            pix = np.concatenate([[[0, 0], [last, last]],
                                  rng.integers(0, self.size, size=(self.pixels, 2))])
            starts = _axis_starts(self.size, self.k, self.stride)
            tiles = {}
            ref = np.zeros((len(pix), self.c))
            for i, (py, px) in enumerate(pix):
                cover = [(r, q) for r in starts if r <= py < r + self.k
                         for q in starts if q <= px < q + self.k]
                for r, q in cover:
                    if (r, q) not in tiles:
                        tile = self.x[:, r:r + self.k, q:q + self.k].astype(np.float64)
                        tiles[r, q] = _attention(tile, self.temperature)
                    ref[i] += tiles[r, q][:, py - r, px - q]
                ref[i] /= len(cover)
            self._ref = (pix, ref)
        return self._ref

    def _check(self, outdir: Path, errors: Errors) -> None:
        out = read_tlct(outdir / "fused.tlct")
        if out.shape != self.x.shape:
            raise CheckFailed(f"fused.tlct shape {out.shape}")
        seam = read_csv_rows(outdir / "seam.csv")
        if [r[0] for r in seam] != ["input", "fused"] or not all(
                math.isfinite(float(r[1])) for r in seam):
            raise CheckFailed(f"seam.csv rows {seam}")
        pix, ref = self._reference()
        errors.add(out[:, pix[:, 0], pix[:, 1]].T, ref, "fuse overlap average")


# --- stats and demo ----------------------------------------------------------


def _ks(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.sort(a), np.sort(b)
    gap = 0.0
    for v in np.concatenate([a, b]):
        gap = max(gap, abs(np.searchsorted(a, v, "right") / a.size
                           - np.searchsorted(b, v, "right") / b.size))
    return gap


def _box_mean_replicated(y: np.ndarray, k: int) -> np.ndarray:
    """Mean over every full k x k window, edge-replicated to y's shape with
    the window centre at top-left + (k-1)//2."""
    interior = sliding_window_view(y, (k, k)).mean(axis=(-2, -1))
    lo = (k - 1) // 2
    hi = k - 1 - lo
    return np.pad(interior, ((lo, hi), (lo, hi)), mode="edge")


class ShiftWorkload:
    """``tlc stats`` plus ``tlc demo`` for each noise layout."""

    pixels = 64
    size = 192  # the CLI's fixed map size for both commands
    stats_channels = 2
    stats_pixels_per_map = 64

    def __init__(self, seed: int, tag: int):
        self.seed, self.tag = seed, tag
        self._refs = {}

    def describe(self) -> dict:
        return {"stats": {"n": STATS_N, "maps": [self.stats_channels, self.size, self.size],
                          "patch": [48, 48]},
                "demo": {"noise": list(DEMO_NOISE), "maps": [1, self.size, self.size],
                         "k": [DEMO_K, DEMO_K], "check_pixels": self.pixels}}

    def generate(self, d: Path) -> list[Path]:
        # The commands synthesise their own maps from the seed; the input
        # is a config file holding it.
        self.dir = d
        cfg = d / "run.cfg"
        cfg.write_text(f"seed = {self.seed}\n")
        return [cfg]

    def warmups(self, work: Path) -> list[list[str]]:
        cfg = str(self.dir / "run.cfg")
        return [["stats", "--config", cfg, "--n", "64", "--outdir", str(work / "warm")],
                ["demo", "--config", cfg, "--outdir", str(work / "warm")]]

    def cycle(self, work: Path) -> list[Op]:
        cfg = str(self.dir / "run.cfg")
        maps = 2 * STATS_N + -(-STATS_N // self.stats_pixels_per_map)
        ops = [Op("stats", "stats_ms",
                  ["stats", "--config", cfg, "--n", str(STATS_N), "--outdir", str(work / "stats")],
                  maps * self.stats_channels * self.size * self.size, work / "stats",
                  self._check_stats)]
        for noise in DEMO_NOISE:
            out = work / f"demo.{noise}"
            ops.append(Op(f"demo.{noise}", "demo_ms",
                          ["demo", "--config", cfg, "--noise", noise, "--k", str(DEMO_K),
                           str(DEMO_K), "--outdir", str(out)],
                          self.size * self.size, out, self._demo_checker(noise)))
        return ops

    def _check_stats(self, outdir: Path, errors: Errors) -> None:
        ks = {pair: float(v) for pair, v in read_csv_rows(outdir / "ks.csv")}
        samples = {}
        for label, v in read_csv_rows(outdir / "samples.csv"):
            samples.setdefault(label, []).append(float(v))
        train, test, tlc = (np.array(samples.get(k, [])) for k in
                            ("TrainPatch", "TestImage", "TestImageTLC"))
        if not (train.size == test.size == tlc.size == STATS_N):
            raise CheckFailed("samples.csv does not hold n samples per population")
        for pair, other in (("TrainPatch-TestImage", test), ("TrainPatch-TestImageTLC", tlc)):
            if abs(ks[pair] - _ks(train, other)) > 1e-9:
                raise CheckFailed(f"ks.csv {pair}={ks[pair]} disagrees with samples.csv")
        if not ks["TrainPatch-TestImageTLC"] < ks["TrainPatch-TestImage"]:
            raise CheckFailed(f"local pooling did not reduce the shift: {ks}")

    def _reference(self, noise: str):
        if noise not in self._refs:
            _, noisy = demo.make_scene(self.seed, self.size, self.size, noise)
            y = noisy.data[0]
            rng = np.random.default_rng([self.seed, self.tag, DEMO_NOISE.index(noise)])
            tops = rng.integers(0, self.size - DEMO_K + 1, size=(self.pixels, 2))
            c0 = (DEMO_K - 1) // 2
            residual = y - _box_mean_replicated(y, 3)
            r2 = residual * residual
            noiseless = float(np.median(r2)) < 1e-4 * float(y.var())
            ref = np.empty(self.pixels)
            for i, (r, q) in enumerate(tops):
                centre = y[r + c0, q + c0]
                if noiseless:
                    ref[i] = centre
                    continue
                win = y[r:r + DEMO_K, q:q + DEMO_K]
                mean = win.mean()
                noise_var = 9.0 / 8.0 * r2[r:r + DEMO_K, q:q + DEMO_K].mean()
                signal_var = max(win.var() - noise_var, 0.0)
                denom = signal_var + noise_var
                gain = signal_var / denom if denom > 0 else 1.0
                ref[i] = mean + gain * (centre - mean)
            self._refs[noise] = (tops + c0, ref)
        return self._refs[noise]

    def _demo_checker(self, noise: str):
        def check(outdir: Path, errors: Errors) -> None:
            psnr = {v: float(p) for v, p in read_csv_rows(outdir / "psnr.csv")}
            if noise == "two-region" and not psnr["local"] > psnr["global"]:
                raise CheckFailed(f"local PSNR does not beat global: {psnr}")
            out = read_tlct(outdir / "restored_local.tlct")
            if out.shape != (1, self.size, self.size):
                raise CheckFailed(f"restored_local.tlct shape {out.shape}")
            centres, ref = self._reference(noise)
            errors.add(out[0, centres[:, 0], centres[:, 1]], ref, f"demo {noise} local Wiener")
        return check


INTEGRAL_KERNELS = ("build_integral", "window_sums", "replicate_to_full",
                    "local_aggregate", "local_max", "local_mean_var")
MODULE_FORWARDS = ("se_forward", "cbam_channel_forward", "norm_forward", "ge_forward")
FUSION_FUNCS = ("apply_and_fuse", "transposed_attention", "coverage_counts", "seam_metric")
ANALYSIS_FUNCS = ("sample_pooled_stats", "ks_distance", "histogram")
DEMO_FUNCS = ("make_scene", "wiener_restore")
TENSOR_FUNCS = ("read_tensor", "write_tensor", "FeatureMap")

_CONVERT_EXPECT = ({f"integral.{f}" for f in INTEGRAL_KERNELS if f != "local_mean_var"}
                   | {f"modules.{f}" for f in MODULE_FORWARDS}
                   | {f"tensor.{f}" for f in TENSOR_FUNCS})


@dataclass(frozen=True)
class Spec:
    """A workload: its factory, and which traced functions it must call
    (``expect``) or must never call (``forbid_layers``)."""

    make: Callable[[int], object]
    expect: frozenset
    forbid_layers: frozenset = frozenset()


WORKLOADS = {
    "fullres-convert": Spec(lambda seed: ConvertWorkload(seed, 1, 64, (512,)),
                            frozenset(_CONVERT_EXPECT)),
    "crop-stream": Spec(lambda seed: ConvertWorkload(seed, 2, 32, (48, 96, 160)),
                        frozenset(_CONVERT_EXPECT)),
    "tile-fuse": Spec(lambda seed: FuseWorkload(seed, 3),
                      frozenset({f"fusion.{f}" for f in FUSION_FUNCS}
                                | {f"tensor.{f}" for f in TENSOR_FUNCS}),
                      frozenset({"integral"})),
    "shift-analysis": Spec(lambda seed: ShiftWorkload(seed, 4),
                           frozenset({f"analysis.{f}" for f in ANALYSIS_FUNCS}
                                     | {f"demo.{f}" for f in DEMO_FUNCS}
                                     | {f"integral.{f}" for f in INTEGRAL_KERNELS
                                        if f != "local_max"}
                                     | {"tensor.write_tensor", "tensor.FeatureMap"})),
}
