import math
from pathlib import Path

import pytest

from psetdisc import cli
from psetdisc.cli import main
from psetdisc.config import InvariantError

POW_FILE = str(Path(__file__).parent / "golden" / "pow.txt")  # gamma_j = j^-2
GEO_FILE = str(Path(__file__).parent / "golden" / "geo.txt")
# gamma = 1, 1, 1, then 0.999^j: k0 = 11370, an envelope constant past 1e308
OVERFLOW_FILE = str(Path(__file__).parent / "golden" / "overflow.txt")

HALVING_TEXT = "product\n1 0.5\n2 0.25\ntail geometric 0.5\n"


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "halving.txt"
    path.write_text(HALVING_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def data_lines(out):
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def kv(out):
    pairs = {}
    for ln in out.splitlines():
        if "=" in ln and not ln.startswith("#"):
            k, _, v = ln.partition("=")
            pairs[k] = v
    return pairs


def test_gen_exact_matches_construction(capsys):
    rc, out = run_cli(capsys, "gen", "--kind", "P", "--p", "5", "--s", "2", "--exact")
    assert rc == 0
    assert data_lines(out) == ["x1,x2", "0/5,0/5", "1/5,1/5", "2/5,4/5",
                               "3/5,4/5", "4/5,1/5"]


def test_gen_decimal_seventeen_digits(capsys):
    rc, out = run_cli(capsys, "gen", "--kind", "P", "--p", "5", "--s", "1")
    assert rc == 0
    rows = data_lines(out)[1:]
    assert rows[1] == format(1 / 5, ".17g")
    assert [float(r) for r in rows] == [n / 5 for n in range(5)]


def test_gen_metadata_lines(capsys):
    _, out = run_cli(capsys, "gen", "--kind", "P", "--p", "3", "--s", "1")
    meta = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert meta[0] == "# cmd: pset-disc gen --kind P --p 3 --s 1"
    assert meta[1] == "# version: 0.1.0"
    assert meta[2].startswith("# caps: ")


def test_disc_equispaced(capsys):
    rc, out = run_cli(capsys, "disc", "--kind", "P", "--p", "5", "--s", "1")
    assert rc == 0
    pairs = kv(out)
    assert pairs["dstar"] == "0.2"
    assert pairs["dstar_exact"] == "1/5"
    assert pairs["side"] == "closed"


def test_disc_deterministic(capsys):
    _, out1 = run_cli(capsys, "disc", "--kind", "Q", "--p", "3", "--s", "2")
    _, out2 = run_cli(capsys, "disc", "--kind", "Q", "--p", "3", "--s", "2")
    assert out1 == out2


def test_wdisc(capsys, weights_file):
    rc, out = run_cli(capsys, "wdisc", "--kind", "P", "--p", "5", "--s", "2",
                      "--weights", weights_file)
    assert rc == 0
    pairs = kv(out)
    assert float(pairs["wdisc"]) == pytest.approx(0.1)
    assert pairs["subset"] == "1"


def test_sum_gauss(capsys):
    rc, out = run_cli(capsys, "sum", "--p", "5", "--s", "2", "--h", "1,1")
    assert rc == 0
    pairs = kv(out)
    assert float(pairs["magnitude"]) == pytest.approx(math.sqrt(5), abs=1e-9)
    assert pairs["terms"] == "5"


def test_sum_double(capsys):
    rc, out = run_cli(capsys, "sum", "--p", "5", "--s", "2", "--h", "1,1", "--double")
    assert rc == 0
    assert float(kv(out)["re"]) == pytest.approx(5.0)


def test_sum_double_rejects_mod_power_two(capsys):
    rc, _ = run_cli(capsys, "sum", "--p", "5", "--s", "2", "--h", "1,1",
                    "--double", "--mod-power", "2")
    assert rc == 1


def test_check_weil(capsys):
    rc, out = run_cli(capsys, "check-weil", "--p", "5", "--s", "2", "--lemma", "3")
    assert rc == 0
    pairs = kv(out)
    assert pairs["max_ratio"] == "1.000000"
    assert pairs["violations"] == "0"
    assert pairs["mode"] == "exhaustive"


def test_bound_thm1(capsys, weights_file):
    rc, out = run_cli(capsys, "bound", "--thm", "1", "--kind", "P", "--p", "5",
                      "--s", "2", "--weights", weights_file)
    assert rc == 0
    pairs = kv(out)
    assert float(pairs["value"]) > 0
    lines = out.splitlines()
    header, row = lines[-2], lines[-1]
    assert header.startswith("thm,kind,p,s,value")
    assert row.split(",")[0] == "1"
    assert "# log: natural" in out


def test_bound_thm2(capsys, weights_file):
    rc, out = run_cli(capsys, "bound", "--thm", "2", "--kind", "P", "--p", "5",
                      "--s", "2", "--weights", weights_file, "--delta", "0.25")
    assert rc == 0
    pairs = kv(out)
    assert pairs["k0"] == "7"
    assert float(pairs["value"]) > 0


def test_bound_lemma1(capsys):
    rc, out = run_cli(capsys, "bound", "--thm", "lemma1", "--kind", "P",
                      "--p", "5", "--s", "2")
    assert rc == 0
    assert float(kv(out)["value"]) == pytest.approx(3.0832815729997476)


def test_bound_lemma2(capsys, weights_file):
    rc, out = run_cli(capsys, "bound", "--thm", "lemma2", "--kind", "P",
                      "--p", "5", "--s", "2", "--weights", weights_file)
    assert rc == 0
    pairs = kv(out)
    assert float(pairs["value"]) == pytest.approx(0.7708203932499369)
    assert pairs["sum_subset"] == "1,2"


def test_bound_thm2_requires_delta(capsys, weights_file):
    rc, _ = run_cli(capsys, "bound", "--thm", "2", "--kind", "P", "--p", "5",
                    "--s", "2", "--weights", weights_file)
    assert rc == 1


def test_nmin(capsys, weights_file):
    rc, out = run_cli(capsys, "nmin", "--kind", "P", "--eps", "0.5", "--s", "5",
                      "--weights", weights_file, "--delta", "0.25")
    assert rc == 0
    pairs = kv(out)
    m = int(pairs["M"])
    p = int(pairs["p"])
    assert m <= p < 2 * m
    assert float(pairs["bound"]) <= 0.5


def test_integrate_csv(capsys):
    rc, out = run_cli(capsys, "integrate", "--kind", "P", "--s", "2",
                      "--primes", "5,11", "--coeffs", "1,0.5")
    assert rc == 0
    rows = data_lines(out)
    assert rows[0] == "p,n,estimate,error,dstar,kh_bound,bound_source"
    assert len(rows) == 3
    for row in rows[1:]:
        fields = row.split(",")
        assert float(fields[3]) <= float(fields[5])  # error <= kh_bound
        float(fields[2])  # re-parseable


def test_chain_pass(capsys, weights_file):
    rc, out = run_cli(capsys, "chain", "--kind", "P", "--p", "5", "--s", "2",
                      "--weights", weights_file, "--delta", "0.25")
    assert rc == 0
    rows = data_lines(out)
    assert rows[0].startswith("kind,p,s,delta,")
    fields = rows[1].split(",")
    assert fields[-1] == "PASS"
    vals = [float(v) for v in fields[4:8]]
    assert vals == sorted(vals)


def test_chain_refuses_before_exact_scan(capsys, monkeypatch, weights_file):
    # 17^6 frequency vectors exceed the default 10^7 cap
    def never(*args, **kwargs):
        raise AssertionError("exact scan ran before the frequency cap refused")

    monkeypatch.setattr(cli, "weighted_star_discrepancy_exact", never)
    rc = main(["chain", "--kind", "Q", "--p", "17", "--s", "3",
               "--weights", weights_file, "--delta", "0.25"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cap exceeded:")


@pytest.mark.parametrize("weights,flags,line", [
    (GEO_FILE, ["--delta", "0.75"], "error: delta must be in (0, 1/2), got 0.75"),
    (str(Path(__file__).parent / "golden" / "general.txt"), ["--delta", "0.25"],
     "error: envelope constants are defined for product weights"),
    (GEO_FILE, ["--delta", "0.25", "--t", "1e-5"],
     "error: t=1e-05 is too small: the tail sum to the power 1/t does not fit a float"),
], ids=["delta", "general", "t-tiny"])
def test_chain_refuses_theorem2_input_first(capsys, monkeypatch, weights, flags, line):
    # P 97/s3 would spend a third of a CPU second on the rhs before thm2_params
    def never(*args, **kwargs):
        raise AssertionError("the rhs ran before the Theorem 2 input was checked")

    monkeypatch.setattr(cli, "weighted_niederreiter_rhs", never)
    rc = main(["chain", "--kind", "P", "--p", "97", "--s", "3", "--weights", weights, *flags])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", line + "\n")


def test_out_file(capsys, tmp_path, weights_file):
    target = tmp_path / "points.csv"
    rc, out = run_cli(capsys, "gen", "--kind", "P", "--p", "3", "--s", "1",
                      "--out", str(target))
    assert rc == 0
    assert out == ""
    assert "0/3" not in target.read_text()  # decimal mode by default
    assert "x1" in target.read_text()
    # the file holds the stdout run's bytes; only '# cmd:' echoes --out too
    rc, printed = run_cli(capsys, "gen", "--kind", "P", "--p", "3", "--s", "1")
    assert rc == 0
    printed = printed.replace(" --s 1\n", f" --s 1 --out {target}\n", 1)
    assert target.read_bytes() == printed.encode()


def test_out_file_unwritable(capsys, tmp_path):
    target = tmp_path / "missing" / "points.csv"
    rc = main(["gen", "--kind", "P", "--p", "3", "--s", "1", "--out", str(target)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_usage_errors(capsys):
    assert main(["disc", "--kind", "X", "--p", "5", "--s", "1"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["disc", "--kind", "P", "--p", "6", "--s", "1"]) == 1  # not prime
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_weights_file(capsys, tmp_path):
    rc = main(["wdisc", "--kind", "P", "--p", "5", "--s", "2",
               "--weights", str(tmp_path / "nope.txt")])
    assert rc == 1
    capsys.readouterr()


def test_bad_weight_file_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("product\n1 -0.5\n")
    rc = main(["wdisc", "--kind", "P", "--p", "5", "--s", "2", "--weights", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_env_cap_override(capsys, monkeypatch, weights_file):
    monkeypatch.setenv("PSET_DISC_MAX_OPS", "10")
    rc = main(["disc", "--kind", "P", "--p", "13", "--s", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cap" in err.lower()


def test_env_cap_invalid(capsys, monkeypatch):
    monkeypatch.setenv("PSET_DISC_MAX_OPS", "zero")
    assert main(["disc", "--kind", "P", "--p", "5", "--s", "1"]) == 1
    capsys.readouterr()


def test_sum_honours_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("PSET_DISC_MAX_OPS", "100")
    for extra in ([], ["--double"]):
        rc = main(["sum", "--p", "101", "--s", "3", "--h", "1,2,3"] + extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: max_point_entries: requested 303, limit 100\n"


def test_sum_reports_composite_p_before_the_cap(capsys, monkeypatch):
    # an invalid p exits 1 on both paths, although 100 terms exceed the cap
    monkeypatch.setenv("PSET_DISC_MAX_OPS", "10")
    for extra in ([], ["--double"]):
        assert main(["sum", "--p", "100", "--s", "1", "--h=1"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p must be prime, got 100" in captured.err


def test_check_weil_honours_env_cap(capsys, monkeypatch):
    # a 101 x 3 power table against 100 point entries, refused before any sweep
    monkeypatch.setenv("PSET_DISC_MAX_OPS", "100")
    rc = main(["check-weil", "--p", "101", "--s", "3", "--lemma", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: max_point_entries: requested 303, limit 100\n"


def test_memory_error_exits_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("table too large")

    monkeypatch.setattr(cli, "star_discrepancy_exact", exhausted)
    rc = main(["disc", "--kind", "P", "--p", "5", "--s", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "out of memory: table too large\n"


def _raising(exc):
    def scan(*args, **kwargs):
        raise exc
    return scan


_TINY_T = ("error: t={} is too small: the tail sum to the power 1/t does not fit "
           "a float")
_OVERFLOW = "error: the envelope constant at k0=11370 (power 11371) does not fit a float"

# argv, PSET_DISC_MAX_OPS or None, what disc's exact scan raises or None,
# exit code, the last stderr line (the only one but for a usage error)
EXIT_PATHS = {
    "usage": (["disc", "--kind", "P", "--p", "5"], None, None, 1,
              "pset-disc disc: error: the following arguments are required: --s"),
    "value": (["disc", "--kind", "P", "--p", "6", "--s", "1"], None, None, 1,
              "error: p must be prime, got 6"),
    "divergence": (["bound", "--thm", "2", "--kind", "P", "--p", "5", "--s", "2",
                    "--weights", POW_FILE, "--delta", "0.25", "--t", "0.5"], None, None, 1,
                   "error: sum of gamma_j**t diverges: exponent*t = 1.0 <= 1"),
    "budget": (["disc", "--kind", "P", "--p", "13", "--s", "3"], "100", None, 2,
               "cap exceeded: max_corners: requested 672, limit 100"),
    "budget-empty-h": (["sum", "--p", "101", "--s", "0", "--h="], "10", None, 2,
                       "cap exceeded: max_point_entries: requested 101, limit 10"),
    "memory": (["disc", "--kind", "P", "--p", "5", "--s", "1"], None,
               MemoryError("table too large"), 2, "out of memory: table too large"),
    "invariant": (["disc", "--kind", "P", "--p", "5", "--s", "1"], None,
                  InvariantError("count mismatch"), 3,
                  "internal invariant violation: count mismatch"),
    "overflow-bound": (["bound", "--thm", "2", "--kind", "Q", "--p", "5", "--s", "2",
                        "--weights", OVERFLOW_FILE, "--delta", "0.25"], None, None, 1,
                       _OVERFLOW),
    "overflow-nmin": (["nmin", "--kind", "P", "--eps", "0.1", "--s", "2",
                       "--weights", OVERFLOW_FILE, "--delta", "0.25"], None, None, 1,
                      _OVERFLOW),
    "overflow-chain": (["chain", "--kind", "R", "--p", "5", "--s", "2",
                        "--weights", OVERFLOW_FILE, "--delta", "0.25"], None, None, 1,
                       _OVERFLOW),
    "nmin-float-range": (["nmin", "--kind", "Q", "--eps", "0.1", "--s", str(10**201),
                          "--weights", POW_FILE, "--delta", "0.25", "--t", "2"], None, None, 1,
                         "error: the target modulus M = exp(993.94) is past the range of a float"),
    "t-overflow": (["bound", "--thm", "2", "--kind", "P", "--p", "5", "--s", "2",
                    "--weights", POW_FILE, "--delta", "0.25", "--t", "800"], None, None, 1,
                   "error: t must be in (0, 709.782712893384], got 800.0"),
    "t-nan": (["bound", "--thm", "2", "--kind", "P", "--p", "5", "--s", "2",
               "--weights", POW_FILE, "--delta", "0.25", "--t", "nan"], None, None, 1,
              "error: t must be in (0, 709.782712893384], got nan"),
    "thm1-float-range": (["bound", "--thm", "1", "--kind", "P", "--p", str(10**400 + 1),
                          "--s", "2", "--weights", GEO_FILE], None, None, 1,
                         "error: p**0.5 in the bound does not fit a float"),
    "thm1-composite": (["bound", "--thm", "1", "--kind", "P", "--p", "4", "--s", "2",
                        "--weights", GEO_FILE], None, None, 1, "error: p must be prime, got 4"),
    "thm2-composite": (["bound", "--thm", "2", "--kind", "P", "--p", "4", "--s", "2",
                        "--weights", GEO_FILE, "--delta", "0.25"], None, None, 1,
                       "error: p must be prime, got 4"),
    # ratio**t of the geometric tail is 1 - 7e-6, then (1.4e5)**(1/t) overflows
    "t-tiny-bound": (["bound", "--thm", "2", "--kind", "P", "--p", "3", "--s", "2",
                      "--weights", GEO_FILE, "--delta", "0.25", "--t", "1e-5"], None, None, 1,
                     _TINY_T.format("1e-05")),
    "t-tinier-bound": (["bound", "--thm", "2", "--kind", "P", "--p", "3", "--s", "2",
                        "--weights", GEO_FILE, "--delta", "0.25", "--t", "1e-10"], None, None,
                       1, _TINY_T.format("1e-10")),
    "t-tiny-nmin": (["nmin", "--kind", "P", "--eps", "0.1", "--s", "2",
                     "--weights", GEO_FILE, "--delta", "0.25", "--t", "1e-5"], None, None, 1,
                    _TINY_T.format("1e-05")),
    # ratio**t rounds to 1: the closed form would divide by 0
    "t-tiniest-bound": (["bound", "--thm", "2", "--kind", "P", "--p", "3", "--s", "2",
                         "--weights", GEO_FILE, "--delta", "0.25", "--t", "1e-300"], None,
                        None, 1, "error: t=1e-300 is too small: the tail ratio**t rounds to 1"),
    "t-tiniest-chain": (["chain", "--kind", "P", "--p", "3", "--s", "2",
                         "--weights", GEO_FILE, "--delta", "0.25", "--t", "1e-300"], None,
                        None, 1, "error: t=1e-300 is too small: the tail ratio**t rounds to 1"),
    "coeffs-nan": (["integrate", "--kind", "P", "--s", "1", "--primes", "2", "--coeffs", "nan"],
                   None, None, 1, "error: integrand coefficients must be finite, got (nan,)"),
    "coeffs-inf": (["integrate", "--kind", "P", "--s", "1", "--primes", "2", "--coeffs", "inf"],
                   None, None, 1, "error: integrand coefficients must be finite, got (inf,)"),
    "bound-inf": (["bound", "--thm", "2", "--kind", "Q", "--p", "5", "--s", str(10**300),
                   "--weights", POW_FILE, "--delta", "0.25", "--t", "2"], None, None, 1,
                  "error: the envelope bound does not fit a float"),
    "h-count": (["sum", "--p", "5", "--s", "3", "--h", "1,2"], None, None, 1,
                "error: --h has 2 entries, --s is 3"),
    "coeffs-count": (["integrate", "--kind", "P", "--s", "2", "--primes", "5", "--coeffs", "1"],
                     None, None, 1, "error: --coeffs has 1 entries, --s is 2"),
    **{f"no-weights-{thm}": (["bound", "--thm", thm, "--kind", "P", "--p", "5", "--s", "2"],
                             None, None, 1, f"error: --thm {thm} requires --weights")
       for thm in ("1", "2", "lemma2")},
    **{f"max-ops-{n}": (["disc", "--kind", "P", "--p", "5", "--s", "1"], n, None, 1,
                        f"error: PSET_DISC_MAX_OPS must be positive, got {n}")
       for n in ("0", "-3")},
}


@pytest.mark.parametrize("path", sorted(EXIT_PATHS))
def test_exit_paths(path, capsys, monkeypatch):
    argv, max_ops, exc, code, line = EXIT_PATHS[path]
    monkeypatch.delenv("PSET_DISC_MAX_OPS", raising=False)
    if max_ops is not None:
        monkeypatch.setenv("PSET_DISC_MAX_OPS", max_ops)
    if exc is not None:
        monkeypatch.setattr(cli, "star_discrepancy_exact", _raising(exc))
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    if path == "usage":  # argparse prints the usage line first
        assert captured.err.startswith("usage: pset-disc disc ")
        assert captured.err.splitlines()[-1] == line
    else:
        assert captured.err == line + "\n"
