import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tworay import homlab
from tworay.cli import main
from tworay.homlab import ArVerifier

from conftest import SYSTEMS


@pytest.fixture
def sysfile(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(SYSTEMS[name]))
        return str(p)

    return write


def run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_validate_ok(sysfile):
    code, out = run(["validate", sysfile("ex14")])
    assert code == 0
    data = json.loads(out)
    assert data["valid"] and data["provenance"]["system_sha256"]


def test_validate_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p":[1],"q":[1],"S":[[]],"T":[[]]}')
    code, out = run(["validate", str(bad)])
    assert code == 2
    assert "SumTooSmall" in json.loads(out)["error"]


@pytest.mark.parametrize("text", [
    '{"p": ["a"], "q": [1], "S": [[]], "T": [[]]}',
    '{"p": 3, "q": [1], "S": [[]], "T": [[]]}',
    '[[2], [1], [[]]]',
    'null',
    '{"p": [2.5], "q": [1], "S": [[]], "T": [[]]}',
    '{"p": [true, true], "q": [1, 1], "S": [[], []], "T": [[], []]}',
    '{"p": [2], "q": [1], "S": [[]]}',
])
def test_malformed_system_exits_two(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (["validate", str(bad)], ["verify", str(bad), "--max-dim", "4"]):
        code, out = run(argv)
        assert code == 2
        assert json.loads(out)["error"].startswith("DefiningSystemError: ")


def test_quiver_counts(sysfile):
    code, out = run(["quiver", sysfile("ex14")])
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 20
    assert len(data["arrows"]) == 22
    assert len(data["relations"]) == 9


def test_quiver_dot(sysfile):
    code, out = run(["quiver", sysfile("ex14"), "--dot"])
    assert code == 0
    assert out.count("->") == 22
    assert sum(f'"{v}"' in out for v in ("x:1:0", "z:1:8", "y:1:1")) == 3


def test_strings_subcommand(sysfile):
    code, out = run(["strings", sysfile("fund21"), "--max-len", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["strings"]) == 12
    assert data["bands"][0]["name"] == "B0"
    trivials = [s for s in data["strings"] if isinstance(s["word"], dict)]
    assert len(trivials) == 3


def test_classify_deterministic(sysfile):
    f = sysfile("tsys")
    code1, out1 = run(["classify", f, "--max-dim", "6"])
    code2, out2 = run(["classify", f, "--max-dim", "6"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert all(e["dim"] <= 6 for e in data["entries"])


def test_ar_rows(sysfile):
    code, out = run(["ar", sysfile("fund21"), "--max-dim", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["rows"] and all(r["right_dim"] <= 6 or r["middle_dim"] <= 6
                                for r in data["rows"])


def test_verify_green(sysfile):
    code, out = run(["verify", sysfile("fund21"), "--max-dim", "5",
                     "--lemma-len", "3"])
    data = json.loads(out)
    assert code == 0
    assert data["failures"] == []
    assert data["well_defined"] and data["all_indecomposable"]


def test_extend_and_reduce(sysfile):
    code, out = run(["extend", sysfile("fund21"), "--vertex", "x:1:2"])
    assert code == 0
    assert json.loads(out)["extended"]["S"] == [[2]]
    code, out = run(["extend", sysfile("fund21"), "--vertex", "z:1:2"])
    assert code == 2
    code, out = run(["reduce", sysfile("ex14")])
    assert code == 0
    assert len(json.loads(out)["chain"]) == 7


def test_classify_matches_fused_verify(sysfile):
    # classify then verify reproduce identical inventories (determinism)
    f = sysfile("tsys")
    _, out = run(["classify", f, "--max-dim", "8"])
    inv1 = json.loads(out)["entries"]
    _, out2 = run(["classify", f, "--max-dim", "8"])
    assert inv1 == json.loads(out2)["entries"]
    code, vout = run(["verify", f, "--max-dim", "8", "--lemma-len", "4"])
    assert code == 0
    assert json.loads(vout)["ar"]["inventory_size"] == len(inv1)


def test_verify_from_inventory(sysfile, tmp_path):
    f = sysfile("fund21")
    code, out = run(["classify", f, "--max-dim", "5"])
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(out)
    code, vout = run(["verify", f, "--max-dim", "5", "--lemma-len", "3",
                      "--from-inventory", str(inv_path)])
    assert code == 0
    assert json.loads(vout)["inventory_replayed"] is True


def test_bad_lambda_rejected(sysfile):
    code, out = run(["classify", sysfile("fund21"), "--max-dim", "4",
                     "--lambda", "0,2"])
    assert code == 2
    for cmd in ("classify", "verify"):
        for lam in ("2,x", ","):
            code, out = run([cmd, sysfile("fund21"), "--max-dim", "4",
                             "--lambda", lam])
            assert code == 2
            assert "--lambda" in json.loads(out)["error"]


def test_verify_bad_inventory_rejected(sysfile, tmp_path):
    # the stored inventory is read before the run, and a bad one is an
    # input error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"entries": [{"family": "M"}]}))
    for path, kind in ((tmp_path / "missing.json", "FileNotFoundError"),
                       (bad, "JSONDecodeError"), (wrong, "KeyError")):
        code, out = run(["verify", sysfile("fund21"), "--max-dim", "4",
                         "--from-inventory", str(path)])
        assert code == 2
        assert json.loads(out)["error"].startswith(kind)


def test_negative_lemma_len_rejected(sysfile, fund21):
    code, out = run(["verify", sysfile("fund21"), "--max-dim", "4",
                     "--lemma-len", "-1"])
    assert code == 2
    assert "--lemma-len" in json.loads(out)["error"]
    ver = ArVerifier(fund21.modules, fund21.algebra)
    for bound, lemma_len in ((4, -1), (-1, None)):
        with pytest.raises(ValueError, match="nonnegative"):
            ver.verify(bound, lemma_len)


def test_oversized_field_rejected(sysfile):
    for cmd in ("classify", "verify"):
        code, out = run([cmd, sysfile("fund21"), "--max-dim", "4",
                         "--field", "2147483647"])
        assert code == 2
        assert "too large" in json.loads(out)["error"]


def test_verify_deterministic(sysfile):
    f = sysfile("fund21")
    args = ["verify", f, "--max-dim", "5", "--lemma-len", "3"]
    _, out1 = run(args)
    _, out2 = run(args)
    assert out1 == out2


def test_verify_exit_one_on_failure(sysfile, tmp_path):
    # a stale stored inventory must fail the replay and flip the exit code
    f = sysfile("fund21")
    _, out = run(["classify", f, "--max-dim", "4"])
    stale = json.loads(out)
    stale["entries"] = stale["entries"][:-1]
    p = tmp_path / "stale.json"
    p.write_text(json.dumps(stale))
    code, vout = run(["verify", f, "--max-dim", "4", "--lemma-len", "2",
                      "--from-inventory", str(p)])
    assert code == 1
    assert json.loads(vout)["inventory_replayed"] is False


def test_negative_bound_rejected(sysfile):
    code, _ = run(["strings", sysfile("fund21"), "--max-len", "-1"])
    assert code == 2


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_worked_example(sysfile):
    # the flagship run: a full verification of the worked example
    code, out = run(["verify", sysfile("ex14"), "--max-dim", "8"])
    data = json.loads(out)
    assert code == 0
    assert _sha256(out) == (
        "01d83fe8c26a40e31b4335a74b6db9486aba2f2e2689c3ef2d543b45353fbfdf")
    assert data["failures"] == []
    assert data["ar"]["coverage"]["missing"] == []
    assert all(r["ok"] for r in data["lemma_checks"])


def test_verify_tsys_report_pinned(sysfile):
    code, out = run(["verify", sysfile("tsys"), "--max-dim", "8"])
    assert code == 0
    assert _sha256(out) == (
        "9eed66b9a2427d36fa7da4decfabfbea54bd31f756c86702df8af181641df1d2")


def test_ar_worked_example_pinned(sysfile):
    code, out = run(["ar", sysfile("ex14"), "--max-dim", "12"])
    assert code == 0
    assert _sha256(out) == (
        "42c9aab901fbaab5573e7866bae56fc1c15ad380895ebd140a78d7c12f9777a2")


def test_ar_tsys_deep_pinned(sysfile):
    # the rows of the tsys-deep benchmark workload, at its own bound
    code, out = run(["ar", sysfile("tsys"), "--max-dim", "20"])
    assert code == 0
    assert _sha256(out) == (
        "6adc2399edfbbcb5c2a5bc3e96f7a688c613749a3260f460a15c1cd07fd3e7c4")


def test_verify_small_prime_pinned(sysfile, monkeypatch):
    # over GF(3), with both units as band parameters, 24 endomorphisms are
    # not scalar + nilpotent by their trace and take the charpoly route
    calls = []
    real = homlab.factor_charpoly
    monkeypatch.setattr(homlab, "factor_charpoly",
                        lambda F, a: calls.append(a) or real(F, a))
    code, out = run(["verify", sysfile("tsys"), "--max-dim", "8",
                     "--field", "3", "--lambda", "1,2"])
    assert code == 0 and len(calls) == 24
    assert _sha256(out) == (
        "a729a1ee74dbef99c965c1bb99f2e7f1a0aa0f94129067300daad8dab2161f6a")


@pytest.mark.parametrize("name", ["tsys", "fund22", "s24", "ex14"])
def test_verify_green_over_gf2(sysfile, name):
    # over GF(2) no fixed combination of Hom basis maps is generic, and
    # every row is still realized
    code, out = run(["verify", sysfile(name), "--max-dim", "6",
                     "--field", "2", "--lambda", "1"])
    data = json.loads(out)
    assert code == 0 and data["failures"] == []
    assert data["ar"]["rows_checked"] > 0


def test_small_prime_verify_imports_no_sympy(sysfile):
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys; from tworay.cli import main; "
              "code = main(sys.argv[1:]); "
              "print(code, 'sympy' in sys.modules, 'numpy.random' in "
              "sys.modules, file=sys.stderr)")
    out = subprocess.run(
        [sys.executable, "-c", script, "verify", sysfile("tsys"),
         "--max-dim", "8", "--field", "3", "--lambda", "1,2"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, check=True)
    assert out.stderr.split() == ["0", "False", "False"]
