"""Byte-exact CLI regression: replay recorded commands through cli.main.

Each case's stdout is stored in tests/golden/<name>.stdout and its exit code
in tests/golden/cases.json.  Commands run with tests/golden as the working
directory so that weight-file paths echoed in '# cmd:' lines are stable.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import json
import os
from pathlib import Path

import pytest

from psetdisc.cli import main

GOLDEN = Path(__file__).parent / "golden"
ENV_MAX_OPS = "PSET_DISC_MAX_OPS"

# name -> (argv, PSET_DISC_MAX_OPS value or None)
CASES = {
    "disc_P_13_3": ("disc --kind P --p 13 --s 3", None),
    "disc_Q_5_2": ("disc --kind Q --p 5 --s 2", None),
    "disc_R_7_3": ("disc --kind R --p 7 --s 3", None),
    "disc_P_11_1": ("disc --kind P --p 11 --s 1", None),
    "disc_P_47_3": ("disc --kind P --p 47 --s 3", None),
    "disc_Q_11_3": ("disc --kind Q --p 11 --s 3", None),
    "wdisc_product_R_13_4": ("wdisc --kind R --p 13 --s 4 --weights geo.txt", None),
    "wdisc_product_P_11_3": ("wdisc --kind P --p 11 --s 3 --weights geo.txt", None),
    "wdisc_general_R_7_3": ("wdisc --kind R --p 7 --s 3 --weights general.txt", None),
    "chain_P_7_2": ("chain --kind P --p 7 --s 2 --weights geo.txt --delta 0.25", None),
    "integrate_R_2": ("integrate --kind R --s 2 --primes 5,11,23 --coeffs 1,0.5", None),
    "disc_corner_cap": ("disc --kind P --p 13 --s 3", "100"),
    "check_weil_p2_lemma5": ("check-weil --p 2 --s 2 --lemma 5", None),
    "bound_lemma1_P_13_3": ("bound --thm lemma1 --kind P --p 13 --s 3", None),
    "bound_lemma2_R_7_3": ("bound --thm lemma2 --kind R --p 7 --s 3 --weights geo.txt", None),
    "check_weil_p7_s3_lemma3": ("check-weil --p 7 --s 3 --lemma 3", None),
    "check_weil_p7_s3_lemma6": ("check-weil --p 7 --s 3 --lemma 6", None),
    "check_weil_sampled_p13_s3": ("check-weil --p 13 --s 3 --lemma 3", "500"),
    "bound_lemma1_R_101_1": ("bound --thm lemma1 --kind R --p 101 --s 1", None),
    "bound_lemma2_Q_7_3": ("bound --thm lemma2 --kind Q --p 7 --s 3 --weights geo.txt", None),
    "sum_1009_3_mod_p2": ("sum --p 1009 --s 3 --h=5,0,7 --mod-power 2", None),
    "sum_101_3_negative_h": ("sum --p 101 --s 3 --h=-8,5,-1", None),
    "check_weil_p5_s3_lemma5": ("check-weil --p 5 --s 3 --lemma 5", None),
    # 289 x 289 points x 16 B is past the gather budget: a slab splits
    "bound_lemma1_Q_17_2": ("bound --thm lemma1 --kind Q --p 17 --s 2", None),
    # the mod-p^2 bound fails at an odd prime: 18 violations
    "check_weil_p3_s3_lemma5": ("check-weil --p 3 --s 3 --lemma 5", None),
    # 25^4 vectors: the FFT screen runs in many chunks
    "check_weil_p5_s4_lemma5": ("check-weil --p 5 --s 4 --lemma 5", None),
    # bound 0 at s = 1: ratios are 0 or inf, so every h stays a candidate
    "check_weil_p13_s1_lemma3": ("check-weil --p 13 --s 1 --lemma 3", None),
    "gen_P_7_2": ("gen --kind P --p 7 --s 2", None),
    "gen_R_3_3_exact": ("gen --kind R --p 3 --s 3 --exact", None),
    # Q reads its own family row (3, 6 log p), not the one P and R share
    "nmin_Q": ("nmin --kind Q --eps 0.1 --s 5 --weights geo.txt --delta 0.25", None),
    "bound_thm1_R_11_3": ("bound --thm 1 --kind R --p 11 --s 3 --weights geo.txt", None),
    "bound_thm2_Q_11_3": ("bound --thm 2 --kind Q --p 11 --s 3 --weights geo.txt "
                          "--delta 0.25", None),
    # gamma_j = j^-2, summed as gamma_j**t with t = 2; part 2 multiplies by s
    "bound_thm2_pow_t2": ("bound --thm 2 --kind P --p 13 --s 4 --weights pow.txt "
                          "--delta 0.25 --t 2", None),
    # two roots of h_1 + h_2 a + h_3 a^2 mod 5: the double sum is 2p
    "sum_double_5_3": ("sum --p 5 --s 3 --h=0,1,2 --double", None),
    # k0 = 11370: the envelope constant does not fit a float, exit 1
    "nmin_envelope_overflow": ("nmin --kind P --eps 0.1 --s 3 --weights overflow.txt "
                               "--delta 0.25", None),
    # 13^3 - 1 vectors past the cap of 500: the sampled lemma 6 mode, 38 heads
    "check_weil_sampled_p13_s3_lemma6": ("check-weil --p 13 --s 3 --lemma 6", "500"),
    "check_weil_p2_s3_lemma6": ("check-weil --p 2 --s 3 --lemma 6", None),
    # at s = 1 the polynomial is the constant h_1: a = 0 counts like any a
    "check_weil_p11_s1_lemma6": ("check-weil --p 11 --s 1 --lemma 6", None),
    # entries outside C(11): a^2 + 8a + 2 mod 11 has the roots 1 and 2
    "sum_double_11_3_large_h": ("sum --p 11 --s 3 --h=13,-25,100 --double", None),
    # every entry a multiple of p: the polynomial is 0 mod p, p roots
    "sum_double_5_3_zero_poly": ("sum --p 5 --s 3 --h=10,-5,25 --double", None),
    # the sampled lemma 5 mode: 10 seeded heads of 4 vectors, no head a
    # multiple of p; at p = 3, 4 heads of 9, two of them multiples of p, so
    # 6 of the 36 vectors are inadmissible
    "check_weil_sampled_p2_s3_lemma5": ("check-weil --p 2 --s 3 --lemma 5", "40"),
    "check_weil_sampled_p3_s2_lemma5_seed4": ("check-weil --p 3 --s 2 --lemma 5 "
                                              "--seed 4", "40"),
}


def _run(name, capsys, monkeypatch):
    argv, max_ops = CASES[name]
    monkeypatch.chdir(GOLDEN)
    if max_ops is None:
        monkeypatch.delenv(ENV_MAX_OPS, raising=False)
    else:
        monkeypatch.setenv(ENV_MAX_OPS, max_ops)
    rc = main(argv.split())
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys, monkeypatch):
    rc, out = _run(name, capsys, monkeypatch)
    exit_codes = json.loads((GOLDEN / "cases.json").read_text())
    assert rc == exit_codes[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


def _regenerate():
    import io
    from contextlib import redirect_stdout

    os.chdir(GOLDEN)
    exit_codes = {}
    for name, (argv, max_ops) in sorted(CASES.items()):
        os.environ.pop(ENV_MAX_OPS, None)
        if max_ops is not None:
            os.environ[ENV_MAX_OPS] = max_ops
        buf = io.StringIO()
        with redirect_stdout(buf):
            exit_codes[name] = main(argv.split())
        Path(f"{name}.stdout").write_text(buf.getvalue(), encoding="utf-8")
    os.environ.pop(ENV_MAX_OPS, None)
    Path("cases.json").write_text(json.dumps(exit_codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
