import csv
import hashlib
import json
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypspectra.bound as bound_module
import hypspectra.cli as cli_module
import hypspectra.cover as cover_module
import hypspectra.eigen as eigen_module
from hypspectra.bound import BoundError
from hypspectra.cli import (CSV_DOC, MASS_CHOICES, TESTFN_CHOICES, ConfigError, RunConfig,
                            build_parser, config_hash, load_config, main,
                            parse_config_file)
from hypspectra.cover import cyclic_cover
from hypspectra.eigen import CharacterSolver, EigensolverError
from oracles import FAR_CUFFS, SWEEP_CUFFS, read_hypmesh

TINY = ["--refine", "0", "--n", "1", "--N", "1,2"]
ENVELOPE = ["timestamp", "version", "config_hash", "config"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def documented_columns(n):
    """Column list per CSV file as CSV_DOC states it, lambda ranges expanded for n."""
    table = CSV_DOC.split("\n\n")[0]
    parts = re.split(r"\s+(\w+\.csv):\s+", table)[1:]
    docs = {}
    for name, cols in zip(parts[::2], parts[1::2]):
        docs[name] = []
        for col in re.sub(r"\s+", "", cols).split(","):
            m = re.fullmatch(r"lambda_0\.\.lambda_\{?(n\+1|\d+)\}?", col)
            if m is None:
                docs[name].append(col)
            else:
                top = n + 1 if m[1] == "n+1" else int(m[1])
                docs[name] += [f"lambda_{k}" for k in range(top + 1)]
    return docs


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweeprun")
    assert main(["sweep", "--out", str(out)] + TINY) == 0
    return out


@pytest.fixture(scope="module")
def converge_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("convergerun")
    assert main(["converge", "--out", str(out), "--refine", "2"]) == 0
    return out


# -- config validation ------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"m": 3}, {"m": 7}, {"m": 2},
    {"n": 0}, {"n": -1},
    {"refine": -1},
    {"tol": 0.0}, {"tol": -1e-9},
    {"N": ()}, {"N": (0,)}, {"N": (2, -1)},
    {"cuffs": (1.0, 2.0)}, {"cuffs": (-1.0, 1.0, 1.0)},
    {"twists": (0.5, 0, 0)}, {"twists": (0, 0)},
    {"seed": 1.5},
    {"mass": "diagonal"}, {"testfn": "ramped"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


def test_config_defaults_valid():
    config = RunConfig()
    assert config.m == 8 and config.refine == 2 and config.n == 2
    assert config.N == (1, 2, 4, 8)
    assert config.mass == "consistent" and config.testfn == "two-sided"


def test_config_hash_ignores_output_path():
    a = RunConfig(out="runs/a")
    b = RunConfig(out="somewhere/else")
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    int(config_hash(a), 16)     # hex digest prefix
    assert config_hash(RunConfig(n=3)) != config_hash(RunConfig(n=2))
    assert config_hash(RunConfig(seed=1)) != config_hash(RunConfig(seed=0))


def test_config_file_then_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# geometry\n"
        "cuffs = 2.0, 2.0, 2.0\n"
        "n = 3          # overridden by the flag below\n"
        "N = 1, 2\n"
        "\n"
        "seed = 5\n")
    raw = parse_config_file(path)
    assert raw["n"] == "3" and raw["N"] == "1, 2"

    args = build_parser().parse_args(["sweep", "--config", str(path), "--n", "2"])
    config = load_config(args)
    assert config.n == 2                 # flag wins over file
    assert config.N == (1, 2)            # file wins over default
    assert config.seed == 5
    assert config.refine == 2            # untouched default


# Per setting, a value other than its default (text, parsed) and a second
# value other than the first (text, parsed).
SETTING_VALUES = {
    "cuffs": ("1.5, 2, 2.5", (1.5, 2.0, 2.5), "3,3,3", (3.0, 3.0, 3.0)),
    "twists": ("-1, 0, 2", (-1, 0, 2), "0,0,4", (0, 0, 4)),
    "m": ("6", 6, "10", 10),
    "refine": ("4", 4, "0", 0),
    "n": ("3", 3, "1", 1),
    "N": ("5", (5,), "2, 3", (2, 3)),
    "tol": ("1e-5", 1e-5, "1e-7", 1e-7),
    "out": ("a", "a", "b", "b"),
    "seed": ("5", 5, "7", 7),
    "mass": ("lumped", "lumped", "consistent", "consistent"),
    "testfn": ("one-sided", "one-sided", "two-sided", "two-sided"),
}


def test_every_flag_overrides_the_file(tmp_path):
    assert list(SETTING_VALUES) == [f.name for f in fields(RunConfig)]
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{name} = {v[0]}\n" for name, v in SETTING_VALUES.items()))
    flags = [f"--{name}={v[2]}" for name, v in SETTING_VALUES.items()]
    config = load_config(build_parser().parse_args(["sweep", "--config", str(path)] + flags))
    assert config == RunConfig(**{name: v[3] for name, v in SETTING_VALUES.items()})


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_file_key_and_flag_give_equal_configs(tmp_path, name):
    text, value = SETTING_VALUES[name][:2]
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {text}\n")
    from_file = load_config(build_parser().parse_args(["sweep", "--config", str(path)]))
    from_flag = load_config(build_parser().parse_args(["sweep", f"--{name}={text}"]))
    assert from_file == from_flag == replace(RunConfig(), **{name: value})
    assert from_file != RunConfig()


def test_config_file_repeated_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 3\nseed = 1\nn = 4\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:3: key 'n' given twice")):
        parse_config_file(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frobs = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(path)
    assert main(["sweep", "--config", str(path)]) == 2


def test_config_file_bad_syntax(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="run.cfg:1"):
        parse_config_file(path)


def test_main_rejects_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tol = -1\n")
    assert main(["sweep", "--config", str(path)]) == 2
    assert main(["sweep", "--tol", "0", "--out", str(tmp_path)]) == 2


def cuffs_config(tmp_path, cuffs):
    path = tmp_path / "cuffs.cfg"
    path.write_text("cuffs = " + ", ".join(map(repr, cuffs)) + "\n")
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cuffs, refine, message", [
    ((1.0, 1.0, 30.0), 0, "degenerate triangle"),        # a fan triangle of the base
    ((1.0, 1.0, 20.0), 2, "degenerate triangle"),        # a refined fan triangle
    ((1500.0, 1.0, 1.0), 0, "float64"),                  # cosh overflows
    ((481.1192909712674, 198.1728132876575, 34.867300136813924), 0,
     "spoke propagation"),                               # a corner versine above 2
    ((0.05, 0.05, 0.05), 0, "cone angle"),
])
def test_geometry_failure_is_a_named_exit(tmp_path, capsys, cuffs, refine, message):
    argv = ["sweep", "--config", cuffs_config(tmp_path, cuffs), "--refine", str(refine),
            "--N", "1", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("cuffs", FAR_CUFFS)
def test_sweep_far_from_default_cuffs(tmp_path, cuffs):
    out = tmp_path / "run"
    code = main(["sweep", "--config", cuffs_config(tmp_path, cuffs), "--refine", "1",
                 "--N", "1,2", "--out", str(out), "--seed", "1"])
    doc = json.loads((out / "sweep.json").read_text())
    assert all(not row["failed"] and row["certificate_holds"] for row in doc["rows"])
    broken = {name for name, holds in doc["asserted"].items() if not holds}
    assert broken <= {"lambda_n_below_bound_each_row"}
    assert code == (1 if broken else 0)


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_corollary_is_not_a_subcommand(tmp_path, capsys):
    # its genus, witness length and ratio are sweep columns
    with pytest.raises(SystemExit) as exit_info:
        main(["corollary", "--out", str(tmp_path)] + TINY)
    assert exit_info.value.code == 2
    assert "invalid choice: 'corollary'" in capsys.readouterr().err


# -- build -------------------------------------------------------------------------

def test_build_writes_verifiable_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(["build", "--out", str(out)] + TINY) == 0
    manifest = json.loads((out / "build.json").read_text())
    assert list(manifest)[:4] == ENVELOPE
    assert manifest["base_genus"] == 2
    assert [e["file"] for e in manifest["files"]] == [
        "base.hypmesh", "cover_n1_N1.hypmesh", "cover_n1_N2.hypmesh"]
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    # genus 1 + d(g-1) for degrees 2 and 4 over genus 2
    assert [e["genus"] for e in manifest["files"]] == [2, 3, 5]


def test_build_cover_file_carries_lifts_and_deck_shift(tmp_path, base_r0):
    out = tmp_path / "run"
    assert main(["build", "--out", str(out)] + TINY) == 0
    surface, curves = read_hypmesh(out / "cover_n1_N2.hypmesh")
    cover = cyclic_cover(*base_r0, n=1, N=2)
    assert curves == {f"lift_{i}": lift for i, lift in enumerate(cover.lifts, start=1)}
    # the file alone gives the deck group: d = G - 1 over the genus-2
    # base, and the shift f -> f + F/d maps lengths and gluing onto themselves
    F, d = surface.num_faces, surface.genus - 1
    assert d == cover.degree and F % d == 0
    moved = (np.arange(F) + F // d) % F
    assert np.array_equal(surface.lengths[moved], surface.lengths)
    assert np.array_equal(surface.glue[moved, :, 0], (surface.glue[..., 0] + F // d) % F)
    assert np.array_equal(surface.glue[moved, :, 1], surface.glue[..., 1])


def test_build_rerun_is_deterministic(tmp_path):
    out = tmp_path / "run"
    assert main(["build", "--out", str(out)] + TINY) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["build", "--out", str(out)] + TINY) == 0
    for p in sorted(out.iterdir()):
        if p.suffix == ".hypmesh":
            assert p.read_bytes() == first[p.name]
        else:
            assert (strip_timestamp(p.read_text())
                    == strip_timestamp(first[p.name].decode()))


# -- sweep -------------------------------------------------------------------------

def test_sweep_outputs(sweep_dir):
    header, rows = read_csv(sweep_dir / "sweep.csv")
    assert header == ["N", "d", "dof", "lambda_0", "lambda_1", "lambda_2",
                      "h", "eta", "t", "bound", "certificate", "bound_holds",
                      "certificate_holds", "genus", "witness_length", "ratio",
                      "failed", "config_hash"]
    assert [r[0] for r in rows] == ["1", "2"]
    # dof is the cover's vertex count, d times the base's 64 vertices
    assert [r[header.index("dof")] for r in rows] == ["128", "256"]
    expected_hash = config_hash(RunConfig(refine=0, n=1, N=(1, 2)))
    for r in rows:
        assert r[-1] == expected_hash
        assert r[header.index("failed")] == "false"
        assert r[header.index("bound_holds")] == "true"
        # float cells are full-precision reprs, so they parse back exactly
        assert repr(float(r[header.index("bound")])) == r[header.index("bound")]

    doc = json.loads((sweep_dir / "sweep.json").read_text())
    assert list(doc)[:4] == ENVELOPE
    assert doc["config_hash"] == expected_hash
    assert all(doc["asserted"].values())
    assert [row["N"] for row in doc["rows"]] == [1, 2]
    assert doc["rows"][0]["report"]["testfn_variant"] == "two-sided"
    for row in doc["rows"]:
        eigen = row["eigen"]
        assert set(eigen) == {"characters", "operator_applies", "max_residual",
                              "sigma", "below_sigma"}
        assert eigen["operator_applies"] > 0
        assert 0 <= eigen["max_residual"] <= 1e-12
        assert row["lambda"][-1] < eigen["sigma"] <= row["lambda"][-1] * (1 + 1e-6)
        assert eigen["below_sigma"] >= len(row["lambda"])
    # d = 2 solves the phases 0 and 1/2 for two eigenvalues each; d = 4
    # solves 0 and 1/4 for one each.
    assert [row["eigen"]["characters"] for row in doc["rows"]] == [2, 2]


def test_sweep_rerun_identical_modulo_timestamp(sweep_dir):
    before_csv = (sweep_dir / "sweep.csv").read_text()
    before_json = (sweep_dir / "sweep.json").read_text()
    assert main(["sweep", "--out", str(sweep_dir)] + TINY) == 0
    assert (sweep_dir / "sweep.csv").read_text() == before_csv
    assert (strip_timestamp((sweep_dir / "sweep.json").read_text())
            == strip_timestamp(before_json))


def test_sweep_builds_no_cover(tmp_path, monkeypatch, sweep_dir):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep built a cover")

    monkeypatch.setattr(cli_module, "cyclic_cover", refuse)
    monkeypatch.setattr(cover_module, "cyclic_cover", refuse)
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--testfn", "one-sided"] + TINY) == 0
    assert main(["sweep", "--out", str(out)] + TINY) == 0
    assert (out / "sweep.csv").read_text() == (sweep_dir / "sweep.csv").read_text()


def test_sweep_records_solver_failures(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise EigensolverError("injected failure")

    monkeypatch.setattr(CharacterSolver, "spectrum", explode)
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out)] + TINY) == 1
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["failed"] for row in doc["rows"]] == [True, True]
    assert all("injected failure" in row["error"] for row in doc["rows"])
    assert all(row["stage"] == "eigen" for row in doc["rows"])
    assert doc["asserted"]["all_rows_succeeded"] is False
    header, rows = read_csv(out / "sweep.csv")
    assert [r[header.index("failed")] for r in rows] == ["true", "true"]
    for key in ("lambda_0", "genus", "witness_length", "ratio"):
        assert [r[header.index(key)] for r in rows] == ["", ""]


def test_sweep_failed_row_names_the_bound_stage(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise BoundError("injected failure")

    monkeypatch.setattr(bound_module, "piece_ramps", explode)
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out)] + TINY) == 1
    doc = json.loads((out / "sweep.json").read_text())
    for row in doc["rows"]:
        assert row["failed"] and row["stage"] == "bound"
        assert row["error"] == "injected failure"
        assert not {"lambda", "genus", "witness_length", "ratio"} & set(row)
    assert "N=  2  FAILED (bound): injected failure" in capsys.readouterr().out


def test_sweep_failed_phase_fails_only_its_row(tmp_path, monkeypatch):
    # N = 1 (d = 2) needs the phases 0 and 1/2; N = 2 (d = 4) adds 1/4.
    real = CharacterSolver._solve

    def solve(self, phase, want):
        if phase == (1, 4):
            raise EigensolverError("injected failure")
        return real(self, phase, want)

    monkeypatch.setattr(CharacterSolver, "_solve", solve)
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out)] + TINY) == 1
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["failed"] for row in doc["rows"]] == [False, True]
    assert "character k=1 of degree 4: injected failure" in doc["rows"][1]["error"]


def test_sweep_records_seam_schur_failure(tmp_path, monkeypatch):
    # A sweep's first factorization is the interior block at the Lanczos
    # shift, which every phase's solve shares; each later one is a row's
    # inertia count, and those fail.
    real = eigen_module.splu
    calls = {"all": 0}

    def splu(A, **kwargs):
        calls["all"] += 1
        if calls["all"] > 1:
            raise RuntimeError("Factor is exactly singular")
        return real(A, **kwargs)

    monkeypatch.setattr(eigen_module, "splu", splu)
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out)] + TINY) == 1
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["failed"] for row in doc["rows"]] == [True, True]
    for row in doc["rows"]:
        assert row["stage"] == "eigen"
        assert re.search(rf"seam Schur complement of degree {row['d']} at sigma=\S+: "
                         r".*Factor is exactly singular", row["error"])
    assert doc["asserted"]["all_rows_succeeded"] is False


def test_sweep_missed_eigenvalue_fails_only_its_row(tmp_path, paired_phases_skip_lowest):
    # Only d = 4 has a complex (paired) phase, 1/4, and Lanczos misses
    # its lowest eigenvalue; the inertia count catches it.
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out)] + TINY) == 1
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["failed"] for row in doc["rows"]] == [False, True]
    assert re.search(r"character k=1 of degree 4: inertia counts \d+ eigenvalues below "
                     r"sigma=\S+, Lanczos returned \d+", doc["rows"][1]["error"])


def test_sweep_short_phase_fails_only_its_row(tmp_path, paired_phases_miss_lowest):
    # d = 4 asks its complex phase 1/4 for one eigenvalue, and Lanczos
    # returns none; the slicing shift needs it, so the row fails by name.
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out)] + TINY) == 1
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["failed"] for row in doc["rows"]] == [False, True]
    assert ("character k=1 of degree 4: Lanczos returned 0 of the 1 eigenvalues asked for"
            in doc["rows"][1]["error"])


FAMILY = ["--refine", "1", "--n", "2"]


@pytest.fixture(scope="module")
def family_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("family")
    assert main(["sweep", "--out", str(out), "--N", "1,2,4,8,16"] + FAMILY) == 0
    return json.loads((out / "sweep.json").read_text())


def test_sweep_row_independent_of_earlier_rows(family_doc, tmp_path):
    out = tmp_path / "alone"
    assert main(["sweep", "--out", str(out), "--N", "16"] + FAMILY) == 0
    (alone,) = json.loads((out / "sweep.json").read_text())["rows"]
    row = family_doc["rows"][-1]
    assert row["N"] == alone["N"] == 16
    assert row["lambda"] == alone["lambda"]          # JSON floats round-trip exactly
    assert row["certificate"] == alone["certificate"]
    # alone, the row solves its phases k/48 with k <= 2 (0, 1/48 and
    # 1/24) and no other phase has an eigenvalue below sigma; in the
    # family, the d = 24 row already solved 0 and 1/24.
    assert alone["eigen"]["characters"] == 3
    assert row["eigen"]["characters"] == 1
    assert row["eigen"]["sigma"] == alone["eigen"]["sigma"]
    assert row["eigen"]["below_sigma"] == alone["eigen"]["below_sigma"]


def test_sweep_solves_each_phase_once(family_doc):
    # A row solves its phases k/d with k <= 2 for ceil(4/d) eigenvalues
    # each, and no other phase has an eigenvalue below sigma.  d = 3
    # solves 0 and 1/3 for two, d = 6 solves 0, 1/6 and 1/3 for one, and
    # each later row only its new 1/d: an earlier row solved 0 and 2/d
    # for one.
    assert [row["eigen"]["characters"] for row in family_doc["rows"]] == [2, 3, 1, 1, 1]


def test_sweep_takes_two_norms_per_lanczos_solve(tmp_path, monkeypatch):
    # |K|_1 and |B|_1 once per phase solve, shared by its backward test
    # and its residuals.
    calls = {"norms": 0, "solves": 0}
    norm1, lanczos = eigen_module._norm1, eigen_module._lanczos

    def counted_norm1(M):
        calls["norms"] += 1
        return norm1(M)

    def counted_lanczos(*args):
        calls["solves"] += 1
        return lanczos(*args)

    monkeypatch.setattr(eigen_module, "_norm1", counted_norm1)
    monkeypatch.setattr(eigen_module, "_lanczos", counted_lanczos)
    assert main(["sweep", "--out", str(tmp_path)] + TINY) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    assert calls["solves"] == sum(row["eigen"]["characters"] for row in rows) > 0
    assert calls["norms"] == 2 * calls["solves"]


def test_sweep_pairs_deck_forced_double_eigenvalue(tmp_path):
    # Full-cover Lanczos used to return one copy of lambda_1 = lambda_2
    # at N = 24 and N = 64; the character solve returns both, exactly.
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--refine", "1", "--n", "2",
                 "--N", "16,24,32,64"]) == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert [row["N"] for row in doc["rows"]] == [16, 24, 32, 64]
    for row in doc["rows"]:
        assert row["lambda"][1] == row["lambda"][2]
        assert row["certificate_holds"] and row["bound_holds"]
    assert doc["asserted"]["lambda_n_strictly_decreasing"] is True


def test_sweep_witness_columns(sweep_dir, base_r0):
    # genus 1 + d(g-1) over the genus-2 base; the n+1 = 2 lifts of a
    # length-2 gamma; lambda_1 falls, so the ratio does
    header, rows = read_csv(sweep_dir / "sweep.csv")
    assert [r[header.index("genus")] for r in rows] == ["3", "5"]
    assert [r[header.index("witness_length")] for r in rows] == ["4.0", "4.0"]
    doc = json.loads((sweep_dir / "sweep.json").read_text())
    assert doc["asserted"]["lambda_n_strictly_decreasing"] is True
    for row in doc["rows"]:
        assert row["genus"] == cyclic_cover(*base_r0, n=1, N=row["N"]).surface.genus
        assert row["ratio"] == row["lambda"][1] / row["witness_length"]
    assert doc["rows"][1]["ratio"] < doc["rows"][0]["ratio"]


@settings(max_examples=24, deadline=None)
@given(n=st.integers(1, 7), Ns=st.sets(st.integers(1, 64), min_size=1, max_size=4),
       mass=st.sampled_from(MASS_CHOICES), testfn=st.sampled_from(TESTFN_CHOICES),
       cuffs=st.sampled_from(SWEEP_CUFFS))
def test_sweep_rows_certified_or_named(n, Ns, mass, testfn, cuffs):
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "run.cfg"
        config.write_text(f"cuffs = {', '.join(map(repr, cuffs))}\n")
        code = main(["sweep", "--config", str(config), "--out", out, "--refine", "0",
                     "--n", str(n), "--N", ",".join(map(str, Ns)), "--mass", mass,
                     "--testfn", testfn])
        doc = json.loads((Path(out) / "sweep.json").read_text())
    assert doc["config"]["cuffs"] == list(cuffs)
    assert code == (0 if all(doc["asserted"].values()) else 1)
    certified = []
    for row in doc["rows"]:
        if row["failed"]:
            assert row["stage"] in ("eigen", "bound") and row["error"]
            continue
        assert row["certificate_holds"]
        assert row["genus"] == 1 + row["d"]
        length = row["report"]["curve_length"]
        assert abs(length - cuffs[0]) <= 1e-12 * cuffs[0]
        assert row["witness_length"] == (n + 1) * length
        assert row["ratio"] == row["lambda"][n] / row["witness_length"]
        certified.append(row["lambda"][n])
    assert doc["asserted"]["lambda_n_strictly_decreasing"] == all(
        b < a for a, b in zip(certified, certified[1:]))


def test_sweep_testfn_variant_flows_through(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out), "--testfn", "one-sided"] + TINY) == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert all(row["report"]["testfn_variant"] == "one-sided"
               for row in doc["rows"])


# -- converge -----------------------------------------------------------------------

def test_converge_needs_three_levels(tmp_path):
    assert main(["converge", "--out", str(tmp_path), "--refine", "1"]) == 2


def test_converge_outputs(converge_dir):
    header, rows = read_csv(converge_dir / "converge.csv")
    assert header == ["level", "dof", "area", "lambda_0", "lambda_1", "lambda_2",
                      "lambda_3", "lambda_4", "config_hash"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    dofs = [int(r[1]) for r in rows]
    assert dofs[1] > dofs[0] and dofs[2] > dofs[1]
    doc = json.loads((converge_dir / "converge.json").read_text())
    assert list(doc)[:4] == ENVELOPE
    assert all(doc["asserted"].values())
    assert set(doc["ratios"]) == {"1", "2", "3", "4"}
    assert len(doc["ratio_flags"]) == 4      # one interior triple per k
    # every edge of the default base joins two distinct vertices, and
    # 12.1, 21.2 and 25.8 % of them carry a negative summed weight
    assert [(r["vertex_pairs"], r["negative_edge_weights"]) for r in doc["rows"]] == \
        [(198, 24), (792, 168), (3168, 816)]
    for row in doc["rows"]:
        eig = row["eigen"]
        assert set(eig) == {"operator_applies", "max_residual", "shift", "ncv", "lu_fill"}
        assert eig["max_residual"] <= 1e-9
        assert eig["shift"] < 0
        assert eig["lu_fill"] > row["dof"]
        # levels above 0 start from the level below, with the lean warm
        # basis: 16 Krylov vectors and about 25 applies, against 41 cold
        assert eig["ncv"] == (40 if row["level"] == 0 else 16)
        assert row["level"] == 0 or eig["operator_applies"] <= 26


def test_converge_rerun_is_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["converge", "--out", str(out), "--refine", "3", "--seed", "3"]) == 0
    a, b = ((out / "converge.csv").read_bytes() for out in outs)
    assert a == b
    rows, again = (json.loads((out / "converge.json").read_text())["rows"] for out in outs)
    assert rows == again                        # the eigen blocks included
    # a cold start needs 68 operator applies at level 3 with this seed
    assert all(row["level"] == 0 or row["eigen"]["operator_applies"] <= 26 for row in rows)


# -- oracle-check --------------------------------------------------------------------

def test_oracle_check_all_pass(tmp_path):
    out = tmp_path / "run"
    assert main(["oracle-check", "--out", str(out)] + TINY) == 0
    doc = json.loads((out / "oracle_check.json").read_text())
    assert list(doc)[:4] == ENVELOPE
    names = [c["name"] for c in doc["checks"]]
    assert names == ["random_pencils_sparse_vs_dense",
                     "pipeline_meshes_sparse_vs_dense",
                     "cone_angles_flat",
                     "area_matches_curvature_total",
                     "euler_characteristic_multiplicative",
                     "collar_theorem_clearance",
                     "base_vs_cover_certificate",
                     "floquet_vs_dense_cover",
                     "inertia_vs_dense_cover",
                     "deck_relabeling_preserves_pencil_bits"]
    assert all(c["passed"] for c in doc["checks"])


# -- documentation ---------------------------------------------------------------------

def test_csv_headers_match_csv_doc(sweep_dir, converge_dir):
    docs = documented_columns(n=1)
    written = {"sweep.csv": sweep_dir, "converge.csv": converge_dir}
    assert set(docs) == set(written)
    for name, directory in written.items():
        header, _ = read_csv(directory / name)
        assert header == docs[name], name
