"""Command-line driver: build meshes, sweep covers, certify bounds.

Subcommands:
  build        write HYPMESH files for the base surface and each cover
  sweep        one bound report per cover degree, with its genus and
               witness length, as CSV + JSON, from base-size pencils
               only: no cover is built
  converge     refinement study of the low spectrum on the base surface
  oracle-check cross-validate the sparse eigensolver, the mesh invariants and
               the base-level certificate against one built on the cover

Runs are deterministic for a fixed config, seed and BLAS thread count;
the thread count can change the last digits of the eigenvalues, so pin
it (e.g. OPENBLAS_NUM_THREADS=1) when comparing runs.  Such reruns give
byte-identical CSV, and JSON except for the timestamp field.  Every
table row embeds the config hash so results from different configs
cannot be aggregated silently.  Exit status is 0 only when every
inequality the command asserts actually holds (2 for usage or I/O
errors, and for cuffs the builder cannot mesh).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, triu

from . import __version__
from .bound import (BoundError, bound_report, boundary_distances, collar_width,
                    distance_to_curves, minimax_certificate, ramp_quotient, ramp_width)
from .cover import cyclic_cover
from .eigen import CharacterSolver, EigensolverError, dense_oracle, solve_smallest
from .fem import (SparsePencil, assemble, bisection_codes, dissection, prolongation,
                  refine)
from .hypgeom import GeometryError
from .surface import FenchelNielsenSpec, MeshError, build_surface, cut_along, write_hypmesh

__all__ = ["ConfigError", "RunConfig", "config_hash", "load_config", "main"]

MASS_CHOICES = ("consistent", "lumped")
TESTFN_CHOICES = ("two-sided", "one-sided")

CSV_DOC = """\
CSV columns (JSON carries a superset of every table):
  sweep.csv:     N,d,dof,lambda_0..lambda_{n+1},h,eta,t,bound,certificate,
                 bound_holds,certificate_holds,genus,witness_length,ratio,
                 failed,config_hash
  converge.csv:  level,dof,area,lambda_0..lambda_4,config_hash

Config file: one `key = value` per line, `#` comments.  Keys: cuffs,
twists, m (three comma-separated cuff lengths, three integer twists,
cuff subdivision) plus n, N, refine, tol, out, seed, mass, testfn with
the same meaning as the flags.  Flags override file values.
"""


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: geometry, cover family, solver knobs."""

    cuffs: tuple = (2.0, 2.0, 2.0)
    twists: tuple = (0, 0, 0)
    m: int = 8
    refine: int = 2
    n: int = 2
    N: tuple = (1, 2, 4, 8)
    tol: float = 1e-9
    out: str = "runs"
    seed: int = 0
    mass: str = "consistent"
    testfn: str = "two-sided"

    def __post_init__(self):
        if len(self.cuffs) != 3 or not all(c > 0 and math.isfinite(c) for c in self.cuffs):
            raise ConfigError("cuffs must be three positive finite lengths")
        if len(self.twists) != 3 or not all(isinstance(t, int) for t in self.twists):
            raise ConfigError("twists must be three integers")
        if not (isinstance(self.m, int) and self.m >= 4 and self.m % 2 == 0):
            raise ConfigError("m must be an even integer >= 4")
        if not (isinstance(self.refine, int) and self.refine >= 0):
            raise ConfigError("refine must be a nonnegative integer")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ConfigError("n must be an integer >= 1")
        if not self.N or not all(isinstance(v, int) and v >= 1 for v in self.N):
            raise ConfigError("N must be a nonempty list of integers >= 1")
        if not (self.tol > 0):
            raise ConfigError("tol must be positive")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        if self.mass not in MASS_CHOICES:
            raise ConfigError(f"mass must be one of {MASS_CHOICES}")
        if self.testfn not in TESTFN_CHOICES:
            raise ConfigError(f"testfn must be one of {TESTFN_CHOICES}")

    def as_dict(self) -> dict:
        return {f.name: (list(v) if isinstance(v := getattr(self, f.name), tuple) else v)
                for f in fields(self)}


def config_hash(config: RunConfig) -> str:
    """Hash of everything that affects the numbers (output path excluded)."""
    doc = config.as_dict()
    del doc["out"]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_number_list(text: str, count=None, kind=float):
    try:
        items = [kind(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as e:
        raise ConfigError(f"cannot parse {text!r} as {kind.__name__} list: {e}") from e
    if count is not None and len(items) != count:
        raise ConfigError(f"expected {count} comma-separated values, got {text!r}")
    return items


def parse_config_file(path) -> dict:
    """Read `key = value` lines into a raw-string dict."""
    raw = {}
    known = {f.name for f in fields(RunConfig)}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def _config_from_raw(raw: dict) -> RunConfig:
    kwargs = {}
    if "cuffs" in raw:
        kwargs["cuffs"] = tuple(_parse_number_list(raw["cuffs"], 3, float))
    if "twists" in raw:
        kwargs["twists"] = tuple(_parse_number_list(raw["twists"], 3, int))
    for key, kind in (("m", int), ("n", int), ("refine", int), ("seed", int),
                      ("tol", float)):
        if key in raw:
            try:
                kwargs[key] = kind(raw[key])
            except ValueError as e:
                raise ConfigError(f"cannot parse {key}={raw[key]!r}: {e}") from e
    if "N" in raw:
        kwargs["N"] = tuple(_parse_number_list(raw["N"], None, int))
    for key in ("out", "mass", "testfn"):
        if key in raw:
            kwargs[key] = raw[key]
    return RunConfig(**kwargs)


def load_config(args) -> RunConfig:
    """Defaults, then config file, then flags; flags win."""
    raw = parse_config_file(args.config) if args.config else {}
    config = _config_from_raw(raw)
    flags = vars(args)
    overrides = {f.name: flags[f.name] for f in fields(RunConfig)
                 if flags.get(f.name) is not None}
    if "N" in overrides:
        overrides["N"] = tuple(_parse_number_list(overrides["N"], None, int))
    return replace(config, **overrides)


def _envelope(config: RunConfig) -> dict:
    """Head of every JSON document: when, which version, which config."""
    return {"timestamp": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
            "config_hash": config_hash(config),
            "config": config.as_dict()}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())
    print(f"wrote {path}")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def _base_pipeline(config: RunConfig):
    """Base surface refined `config.refine` times, with the cut curve carried."""
    spec = FenchelNielsenSpec(cuff_lengths=config.cuffs, twists=config.twists,
                              segments=config.m)
    surface, gamma = build_surface(spec)
    for _ in range(config.refine):
        surface, (gamma,) = refine(surface, [gamma])
    return surface, gamma


def _character_solver(cut, config: RunConfig):
    """The pencil of the cut surface, and its solver for the n+2 smallest eigenvalues."""
    pencil = assemble(cut, mass=config.mass)
    return pencil, CharacterSolver(pencil, cut.base_vertex, cut.right_vertices,
                                   count=config.n + 2, tol=config.tol, seed=config.seed)


def _sweep_rows(config: RunConfig):
    """One row per cover degree; solver failures are recorded, not fatal.

    The pencil is assembled once per sweep, on the base cut open along
    gamma, and no cover is built.  The eigenvalues come from its
    character pencils: a row solves a few low phases for at least n+2
    eigenvalues in all, one per phase once d >= n+2, and then each
    phase for as many eigenvalues as it has below the row's slicing
    shift; a phase an earlier row solved for as many is not solved
    again.  The certificate takes the ramps copy by copy on the cut, as
    base-level vectors, from its distances to the two boundary circles,
    which are computed once per sweep.  A row's dof is the cover's
    vertex count, d times the base's; its genus is 1 + d(g-1), and its
    witness length, the length of the n+1 lifts of gamma, is the same on
    every row.  A failed row names its stage, "eigen" or "bound".
    """
    base, gamma = _base_pipeline(config)
    cut = cut_along(base, gamma)
    cut_pencil, solver = _character_solver(cut, config)
    dist, base_area = boundary_distances(cut), base.total_area()
    chash = config_hash(config)
    rows = []
    for N in sorted(set(config.N)):
        d = (config.n + 1) * N
        row = {"N": N, "d": d, "dof": d * base.num_vertices,
               "failed": False, "config_hash": chash}
        try:
            spectrum = solver.spectrum(d)
            report = bound_report(cut, cut_pencil, spectrum, config.n, N,
                                  variant=config.testfn, dist=dist, base_area=base_area)
        except (EigensolverError, BoundError) as e:
            row.update(failed=True, error=str(e),
                       stage="eigen" if isinstance(e, EigensolverError) else "bound")
            rows.append(row)
            continue
        row["lambda"] = [float(v) for v in spectrum.values]
        row["eigen"] = {"characters": spectrum.solved,
                        "operator_applies": spectrum.iterations,
                        "max_residual": float(spectrum.residuals.max()),
                        "sigma": spectrum.sigma,
                        "below_sigma": spectrum.below_sigma}
        witness = (config.n + 1) * report.curve_length
        row.update(h=report.h, eta=report.eta, t=report.t, bound=report.bound,
                   certificate=report.certificate,
                   bound_holds=report.bound_holds,
                   certificate_holds=report.certificate_holds,
                   genus=1 + d * (base.genus - 1), witness_length=witness,
                   ratio=report.lambda_n / witness,
                   report=asdict(report))
        rows.append(row)
    return base, rows


def cmd_build(config: RunConfig) -> int:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    base, gamma = _base_pipeline(config)
    entries = []

    def record(path: Path, surface):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        entries.append({"file": path.name, "sha256": digest,
                        "faces": surface.num_faces,
                        "vertices": surface.num_vertices,
                        "genus": surface.genus,
                        "area": surface.total_area()})
        print(f"wrote {path} (genus {surface.genus}, {surface.num_faces} faces)")

    base_path = out / "base.hypmesh"
    write_hypmesh(base_path, base, curves={"gamma": gamma})
    record(base_path, base)
    for N in sorted(set(config.N)):
        cover = cyclic_cover(base, gamma, n=config.n, N=N)
        path = out / f"cover_n{config.n}_N{N}.hypmesh"
        write_hypmesh(path, cover.surface,
                      curves={f"lift_{i}": lift for i, lift in enumerate(cover.lifts, start=1)})
        record(path, cover.surface)

    _write_json(out / "build.json", {
        **_envelope(config),
        "base_genus": base.genus,
        "files": entries,
    })
    return 0


def cmd_sweep(config: RunConfig) -> int:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    base, rows = _sweep_rows(config)

    ok_rows = [r for r in rows if not r["failed"]]
    lam_n = [r["lambda"][config.n] for r in ok_rows]
    # The witness length is the same on every row, so this is also the
    # ratio lambda_n / witness_length strictly decreasing.
    decreasing = all(b < a for a, b in zip(lam_n, lam_n[1:]))
    bounds_hold = all(r["bound_holds"] for r in ok_rows)
    all_ok = not any(r["failed"] for r in rows)
    asserted = {"lambda_n_strictly_decreasing": decreasing,
                "lambda_n_below_bound_each_row": bounds_hold,
                "all_rows_succeeded": all_ok}

    lam_cols = [f"lambda_{k}" for k in range(config.n + 2)]
    row_cols = ["h", "eta", "t", "bound", "certificate", "bound_holds",
                   "certificate_holds", "genus", "witness_length", "ratio"]
    header = ["N", "d", "dof"] + lam_cols + row_cols + ["failed", "config_hash"]
    csv_rows = []
    for r in rows:
        lam = r.get("lambda", [None] * (config.n + 2))
        csv_rows.append([_cell(r["N"]), _cell(r["d"]), _cell(r["dof"])] +
                        [_cell(v) for v in lam] +
                        [_cell(r.get(key)) for key in row_cols] +
                        [_cell(r["failed"]), r["config_hash"]])
    _write_csv(out / "sweep.csv", header, csv_rows)
    _write_json(out / "sweep.json", {
        **_envelope(config),
        "base_genus": base.genus,
        "rows": rows,
        "asserted": asserted,
    })

    for r in rows:
        if r["failed"]:
            print(f"N={r['N']:>3}  FAILED ({r['stage']}): {r['error']}")
        else:
            print(f"N={r['N']:>3} d={r['d']:>3} dof={r['dof']:>7} "
                  f"lambda_{config.n}={r['lambda'][config.n]:.8f} "
                  f"bound={r['bound']:.8f} cert={r['certificate']:.8f} "
                  f"holds={str(r['bound_holds']).lower()}")
    print("asserted:", json.dumps(asserted))
    return 0 if all(asserted.values()) else 1


def _edge_weight_signs(K) -> tuple:
    """(vertex pairs, pairs with a negative summed side weight) of a stiffness K.

    K's entry off the diagonal is minus the pair's summed weight, so a
    negative weight is a positive entry; each pair is counted once,
    above the diagonal.
    """
    upper = triu(K, k=1)
    return upper.nnz, int(np.count_nonzero(upper.data > 0))


def cmd_converge(config: RunConfig) -> int:
    if config.refine < 2:
        raise ConfigError("converge needs refine >= 2 (three mesh levels or more)")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)

    surface, _ = _base_pipeline(replace(config, refine=0))
    codes = bisection_codes(surface)
    count = 5
    rows = []
    area_target = -2.0 * math.pi * surface.euler_characteristic()
    areas_ok = True
    kernel_ok = True
    # Each level starts Lanczos from the level below's eigenvectors,
    # interpolated onto its mesh.
    start = None
    for level in range(config.refine + 1):
        if level:
            start = prolongation(surface) @ spectrum.vectors
            surface, _ = refine(surface)
        pencil = assemble(surface, mass=config.mass)
        area, order = float(surface.total_area()), dissection(surface, codes)
        if level == config.refine:
            del surface     # the finest mesh is not held across its factorization
        spectrum = solve_smallest(pencil, count=count, tol=config.tol, seed=config.seed,
                                  start=start, order=order)
        scale = pencil.stiffness.diagonal().sum() / pencil.dof
        areas_ok &= bool(abs(area - area_target) <= 1e-8)
        kernel_ok &= bool(abs(spectrum.values[0]) <= 1e-8 * scale)
        pairs, negative = _edge_weight_signs(pencil.stiffness)
        rows.append({"level": level, "dof": pencil.dof, "area": area,
                     "vertex_pairs": pairs, "negative_edge_weights": negative,
                     "lambda": [float(v) for v in spectrum.values],
                     "eigen": {"operator_applies": spectrum.iterations,
                               "max_residual": float(spectrum.residuals.max()),
                               "shift": spectrum.shift, "ncv": spectrum.ncv,
                               "lu_fill": spectrum.lu_fill},
                     "config_hash": chash})

    ratios = {}
    flags = []
    for k in range(1, count):
        ratios[k] = []
        for j in range(1, len(rows) - 1):
            num = rows[j - 1]["lambda"][k] - rows[j]["lambda"][k]
            den = rows[j]["lambda"][k] - rows[j + 1]["lambda"][k]
            ratio = num / den if den > 0 else None
            ratios[k].append(ratio)
            in_range = ratio is not None and 2.5 <= ratio <= 6.0
            flags.append({"k": k, "levels": [j - 1, j, j + 1],
                          "ratio": ratio, "in_range": in_range})

    asserted = {"area_matches_curvature_total": areas_ok,
                "constant_mode_is_kernel": kernel_ok}
    header = ["level", "dof", "area"] + [f"lambda_{k}" for k in range(count)] + ["config_hash"]
    _write_csv(out / "converge.csv", header,
               [[_cell(r["level"]), _cell(r["dof"]), _cell(r["area"])] +
                [_cell(v) for v in r["lambda"]] + [r["config_hash"]] for r in rows])
    _write_json(out / "converge.json", {
        **_envelope(config),
        "rows": rows,
        "ratios": ratios,
        "ratio_flags": flags,
        "asserted": asserted,
    })
    for r in rows:
        lams = " ".join(f"{v:.8f}" for v in r["lambda"])
        print(f"level={r['level']} dof={r['dof']:>6} area={r['area']:.10f} lambda: {lams}")
    for f in flags:
        tag = "ok" if f["in_range"] else "OUT OF RANGE"
        print(f"ratio lambda_{f['k']} levels {f['levels']}: {f['ratio']}  [{tag}]")
    print("asserted:", json.dumps(asserted))
    return 0 if all(asserted.values()) else 1


def _lift_distances(cover) -> np.ndarray:
    """(n+1, dof) edge-path distances over the whole cover, row i-1 to lift i.

    The distance to a union of lifts is the elementwise minimum of their
    rows, bitwise: floating-point d + w is monotone in d, so a
    multi-source run finds exactly the minimum of the single-source runs.
    """
    return np.stack([distance_to_curves(cover.surface, [lift]) for lift in cover.lifts])


def _cover_ramps(cover, lift_dist: np.ndarray, variant: str) -> np.ndarray:
    """One ramp per piece, built on the cover itself at the sweep's ramp width.

    The reference for the sweep's base-level ramps: `lift_dist` is
    `_lift_distances(cover)`, a vertex belongs to the piece of its faces
    and lift vertices to none.  Distinct ramps share no triangle, which
    `minimax_certificate` checks.
    """
    piece = np.zeros(cover.surface.num_vertices, dtype=np.int64)
    piece[cover.surface.faces] = cover.piece[:, None]
    piece[[v for lift in cover.lifts for v in lift.vertices]] = 0
    distances = lift_dist.min(axis=0) if variant == "two-sided" else lift_dist
    ramp = np.clip(distances / ramp_width(cover.lifts[0].length), 0.0, 1.0)
    own = piece == np.arange(1, cover.n + 2)[:, None]
    return np.where(own, ramp, 0.0)


def _random_pencil(rng, size: int, singular: bool):
    rows = size - 1 if singular else size
    G = rng.standard_normal((rows, size))
    K = csr_matrix(G.T @ G)
    E = rng.standard_normal((size, size)) / math.sqrt(size)
    B = csr_matrix(0.5 * np.eye(size) + E.T @ E)
    return SparsePencil(stiffness=K, mass=B)


def cmd_oracle_check(config: RunConfig) -> int:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for trial in range(20):
        size = int(rng.integers(24, 97))
        pencil = _random_pencil(rng, size, singular=trial % 2 == 0)
        sparse = solve_smallest(pencil, count=6, tol=config.tol, seed=config.seed)
        dense = dense_oracle(pencil, count=6)
        diff = float(np.max(np.abs(sparse.values - dense.values) /
                            np.maximum(1.0, np.abs(dense.values))))
        worst = max(worst, diff)
    check("random_pencils_sparse_vs_dense", worst <= 1e-8,
          f"20 pencils, worst relative eigenvalue gap {worst:.3e} (tol 1e-8)")

    base0, gamma0 = _base_pipeline(replace(config, refine=0))
    base1, _ = refine(base0)
    codes = bisection_codes(base0)
    cover0 = cyclic_cover(base0, gamma0, n=config.n, N=1)
    worst = 0.0
    # The base meshes are factored in their nested-dissection order, as in
    # `converge`; the cover has no face tree and keeps SuperLU's own order.
    meshes = [(base0, dissection(base0, codes)), (base1, dissection(base1, codes)),
              (cover0.surface, None)]
    for surface, order in meshes:
        pencil = assemble(surface, mass=config.mass)
        sparse = solve_smallest(pencil, count=6, tol=config.tol, seed=config.seed,
                                order=order)
        dense = dense_oracle(pencil, count=6)
        diff = float(np.max(np.abs(sparse.values - dense.values) /
                            np.maximum(1.0, np.abs(dense.values))))
        worst = max(worst, diff)
    check("pipeline_meshes_sparse_vs_dense", worst <= 1e-8,
          f"{len(meshes)} meshes, worst relative eigenvalue gap {worst:.3e} (tol 1e-8)")

    dev = float(np.abs(base1.cone_angles() - 2.0 * math.pi).max())
    check("cone_angles_flat", dev <= 1e-8, f"max deviation from 2*pi: {dev:.3e}")

    gb = abs(base1.total_area() + 2.0 * math.pi * base1.euler_characteristic())
    check("area_matches_curvature_total", gb <= 1e-8,
          f"|area - (-2*pi*chi)| = {gb:.3e}")

    chi_ok = (cover0.surface.euler_characteristic()
              == cover0.degree * base0.euler_characteristic())
    check("euler_characteristic_multiplicative", chi_ok,
          f"chi(cover)={cover0.surface.euler_characteristic()} "
          f"= {cover0.degree} * {base0.euler_characteristic()}")

    # Collars of width collar_width(l) around disjoint simple closed
    # geodesics are disjoint, and edge paths overestimate distance.
    lifts = cover0.lifts
    lift_dist = _lift_distances(cover0)
    clearance = min(float(lift_dist[i, list(lifts[j].vertices)].min())
                    for i, j in itertools.combinations(range(len(lifts)), 2))
    width = collar_width(gamma0.length)
    check("collar_theorem_clearance", clearance >= 2.0 * width,
          f"edge-path clearance between lifts {clearance:.6g}, "
          f"2 * collar width {2.0 * width:.6g}")

    # Sweeps take each ramp copy by copy on the cut surface; N = 1..4
    # covers a lone copy, rise and fall copies, and a middle copy.
    base, gamma = _base_pipeline(config)
    cut = cut_along(base, gamma)
    cut_pencil, dist = assemble(cut, mass=config.mass), boundary_distances(cut)
    worst = 0.0
    for N in range(1, 5):
        cover = cyclic_cover(base, gamma, n=config.n, N=N)
        fs = _cover_ramps(cover, _lift_distances(cover), config.testfn)
        reference, _ = minimax_certificate(assemble(cover.surface, mass=config.mass),
                                           fs, cover.surface.faces)
        quotient = ramp_quotient(cut, cut_pencil, dist, N, config.testfn)
        worst = max(worst, abs(quotient - reference) / reference)
    check("base_vs_cover_certificate", worst <= 1e-12,
          f"N = 1..4, {config.testfn} ramps: worst relative gap {worst:.3e} (tol 1e-12)")

    full = assemble(cover0.surface, mass=config.mass)
    _, solver = _character_solver(cover0.cut, config)
    floquet = solver.spectrum(cover0.degree)
    dense_all = dense_oracle(full, count=full.dof).values
    dense = dense_all[:config.n + 2]
    # lambda_0 is the kernel: measured against trace(K)/dof, the rest relative.
    scale = full.stiffness.diagonal().sum() / full.dof
    gap = float(np.max(np.abs(floquet.values - dense) / np.r_[scale, np.abs(dense[1:])]))
    check("floquet_vs_dense_cover", gap <= 1e-10,
          f"{floquet.solved} character pencils against the dense {full.dof}-dof "
          f"cover pencil, worst relative eigenvalue gap {gap:.3e} (tol 1e-10)")

    below = int(np.count_nonzero(dense_all < floquet.sigma))
    check("inertia_vs_dense_cover", floquet.below_sigma == below,
          f"{floquet.below_sigma} eigenvalues below sigma={floquet.sigma:.6e} by inertia, "
          f"{below} in the dense {full.dof}-dof cover pencil")

    # assemble returns canonical CSR, so K itself is the sorted reference.
    perm = cover0.deck_vertex
    equiv = True
    for mat in (full.stiffness, full.mass):
        moved = mat[perm][:, perm]
        moved.sort_indices()
        equiv &= (np.array_equal(moved.indptr, mat.indptr)
                  and np.array_equal(moved.indices, mat.indices)
                  and moved.data.tobytes() == mat.data.tobytes())
    check("deck_relabeling_preserves_pencil_bits", equiv,
          "assembled cover pencil: P^T K P == K and P^T B P == B bitwise"
          if equiv else "bit mismatch")

    _write_json(out / "oracle_check.json", {
        **_envelope(config),
        "checks": checks,
    })
    return 0 if all(c["passed"] for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypspectra",
        description="Spectral bounds for cyclic covers of a genus-2 hyperbolic surface.",
        epilog=CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("build", "write HYPMESH files for the base surface and covers"),
            ("sweep", "bound report per cover degree (CSV + JSON)"),
            ("converge", "refinement study on the base surface"),
            ("oracle-check", "cross-validate the eigensolver and mesh invariants")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--n", type=int, help="number of designated lifts minus one")
        p.add_argument("--N", metavar="LIST", help="comma-separated cover multipliers")
        p.add_argument("--refine", type=int, help="refinement levels")
        p.add_argument("--tol", type=float, help="eigensolver tolerance")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, help="solver starting-vector seed")
        p.add_argument("--mass", choices=MASS_CHOICES, help="mass matrix variant")
        p.add_argument("--testfn", choices=TESTFN_CHOICES,
                       help="test-function ramp variant")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        handler = {"build": cmd_build, "sweep": cmd_sweep, "converge": cmd_converge,
                   "oracle-check": cmd_oracle_check}
        return handler[args.command](config)
    except (ConfigError, MeshError, GeometryError, BoundError, EigensolverError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e.filename or ''}: {e.strerror or e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
