import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tworay import cli, homlab
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


def test_oversized_path_space_exits_two(tmp_path, monkeypatch):
    # a valid system whose path space is too large to hold is an input
    # error, found before the paths are built; here the bound is patched
    # small, so one strand of length 60 (1,892 paths) exceeds it
    from tworay import algebra

    monkeypatch.setattr(algebra, "PATH_CAP", 1000)
    big = tmp_path / "big.json"
    big.write_text('{"p": [60], "q": [1], "S": [[]], "T": [[]]}')
    for cmd in ("ar", "verify"):
        code, out = run([cmd, str(big), "--max-dim", "2"])
        assert code == 2
        assert json.loads(out)["error"].startswith(
            "NonStabilizing: path space too large: 1892 paths")


def test_long_associativity_check_exits_two(tmp_path, monkeypatch):
    # a basis with more composable triples of paths than the associativity
    # check may walk is an input error; here the bound is patched small, so
    # one strand of length 20 (10,629 triples) exceeds it
    from tworay import algebra

    monkeypatch.setattr(algebra, "TRIPLE_CAP", 1000)
    strand = tmp_path / "strand.json"
    strand.write_text('{"p": [20], "q": [1], "S": [[]], "T": [[]]}')
    for cmd in ("ar", "verify"):
        code, out = run([cmd, str(strand), "--max-dim", "2"])
        assert code == 2
        assert json.loads(out)["error"] == (
            "NonStabilizing: associativity check too long: 10629 composable "
            "triples of basis paths, the bound being 1000")


def test_undecodable_input_exits_two(sysfile, tmp_path):
    # a file that is not UTF-8 is an input error, as a system and as a
    # stored inventory
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    for argv in (["validate", str(bad)],
                 ["verify", str(bad), "--max-dim", "4"],
                 ["verify", sysfile("fund21"), "--max-dim", "4",
                  "--from-inventory", str(bad)]):
        code, out = run(argv)
        assert code == 2
        assert json.loads(out)["error"].startswith("UnicodeDecodeError: ")


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
    # an explicit sample must avoid 0 mod p; the default is reduced instead
    for cmd in ("classify", "verify"):
        code, out = run([cmd, sysfile("fund21"), "--max-dim", "4",
                         "--lambda", "0,2"])
        assert code == 2
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


class _WriteSpy(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def _dumped(obj, monkeypatch):
    spy = _WriteSpy()
    monkeypatch.setattr(sys, "stdout", spy)
    cli._dump(obj)
    return spy


def test_dump_writes_the_json_text(monkeypatch):
    # unsorted keys, nesting, and a complex value only default=repr encodes
    obj = {"z": [1, {"b": None, "a": (2, 3)}], "a": {"y": 1j, "x": "s"}}
    assert _dumped(obj, monkeypatch).getvalue() == json.dumps(
        obj, sort_keys=True, indent=2, default=repr) + "\n"


def test_dump_streams_a_long_report(monkeypatch):
    # the text goes out in batches of chunks: never whole, never a write
    # per chunk
    obj = {"rows": [{"key": i, "f": [[i, 1], [0, i]]} for i in range(4000)]}
    text = json.dumps(obj, sort_keys=True, indent=2, default=repr)
    chunks = sum(1 for _ in json.JSONEncoder(
        sort_keys=True, indent=2, default=repr).iterencode(obj))
    assert chunks >= 50_000
    spy = _dumped(obj, monkeypatch)
    assert spy.getvalue() == text + "\n"
    assert 1 < len(spy.sizes) < chunks / 1000
    assert max(spy.sizes) < len(text)


def test_closed_stdout_exits_141_quietly(sysfile):
    # `tworay verify ... | head -c 100`: the reader leaves after 100 bytes of
    # a 329 kB report, more than a pipe holds, so later writes find it gone
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "tworay.cli", "verify", sysfile("tsys"),
         "--max-dim", "20"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert head.startswith(b"{") and len(head) == 100
    assert err == b""


# the stdout digest of ``tworay verify`` on ex14 at --max-dim 8; CI's
# "Console script" step reads it from here for the installed entry point
EX14_VERIFY_AT_8 = (
    "01d83fe8c26a40e31b4335a74b6db9486aba2f2e2689c3ef2d543b45353fbfdf")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.hashseed
def test_verify_worked_example(sysfile):
    # the flagship run: a full verification of the worked example
    code, out = run(["verify", sysfile("ex14"), "--max-dim", "8"])
    data = json.loads(out)
    assert code == 0
    assert _sha256(out) == EX14_VERIFY_AT_8
    assert data["failures"] == []
    assert data["ar"]["coverage"]["missing"] == []
    assert all(r["ok"] for r in data["lemma_checks"])


@pytest.mark.hashseed
def test_verify_tsys_report_pinned(sysfile):
    code, out = run(["verify", sysfile("tsys"), "--max-dim", "8"])
    assert code == 0
    assert _sha256(out) == (
        "9eed66b9a2427d36fa7da4decfabfbea54bd31f756c86702df8af181641df1d2")


@pytest.mark.hashseed
def test_verify_tsys_deep_report_pinned(sysfile):
    # the tsys-deep benchmark run: its 632 End systems are solved in the
    # array passes of hom_spaces
    code, out = run(["verify", sysfile("tsys"), "--max-dim", "20"])
    assert code == 0
    assert _sha256(out) == (
        "6f97e72da28c8fa08b34d98eefebdcdd4d85ad1b4a09041282ab8abc6adee95f")


@pytest.mark.hashseed
def test_verify_ex14_bound_12_report_pinned(sysfile):
    # ex14 at bound 12: 1,986 Hom systems (844 End, 1,142 lemma) in 6 array
    # passes, 62 of whose long rows fall to one or two roots after the ties
    code, out = run(["verify", sysfile("ex14"), "--max-dim", "12"])
    assert code == 0
    assert _sha256(out) == (
        "4a36704e7979190b569478ef1bed5cd517f342fd49a7b72a0e11e5dc4a744d0b")


@pytest.mark.hashseed
def test_verify_fund32_report_pinned(sysfile):
    # R and X at x-vertices: the single-L model of the R lemma
    code, out = run(["verify", sysfile("fund32"), "--max-dim", "8"])
    assert code == 0
    assert _sha256(out) == (
        "d701ae7769313f4b1db94758f91b1289fa6193d917b3a6d6bfa5d9cab51b27fa")


@pytest.mark.hashseed
def test_verify_from_inventory_replay_pinned(sysfile, tmp_path):
    # a stored classification of the worked example replays through verify
    f = sysfile("ex14")
    code, out = run(["classify", f, "--max-dim", "8"])
    assert code == 0
    inv_path = tmp_path / "ex14-inv.json"
    inv_path.write_text(out)
    code, out = run(["verify", f, "--max-dim", "8",
                     "--from-inventory", str(inv_path)])
    assert code == 0
    assert _sha256(out) == (
        "7b8446be0c21a81c3e497c844bec5d8a93624e6d2e43da95c494047bbe263e0b")


@pytest.mark.hashseed
def test_ar_worked_example_pinned(sysfile):
    code, out = run(["ar", sysfile("ex14"), "--max-dim", "12"])
    assert code == 0
    assert _sha256(out) == (
        "42c9aab901fbaab5573e7866bae56fc1c15ad380895ebd140a78d7c12f9777a2")


@pytest.mark.hashseed
def test_ar_tsys_deep_pinned(sysfile):
    # the rows of the tsys-deep benchmark workload, at its own bound
    code, out = run(["ar", sysfile("tsys"), "--max-dim", "20"])
    assert code == 0
    assert _sha256(out) == (
        "6adc2399edfbbcb5c2a5bc3e96f7a688c613749a3260f460a15c1cd07fd3e7c4")


@pytest.mark.hashseed
def test_verify_small_prime_pinned(sysfile, monkeypatch):
    # over GF(3), with both units as band parameters, every scalar part
    # comes from the Frobenius power, and a green run factors no charpoly
    calls = []
    real = homlab.factor_charpoly
    monkeypatch.setattr(homlab, "factor_charpoly",
                        lambda F, a: calls.append(a) or real(F, a))
    code, out = run(["verify", sysfile("tsys"), "--max-dim", "8",
                     "--field", "3", "--lambda", "1,2"])
    assert code == 0 and len(calls) == 0
    assert _sha256(out) == (
        "a729a1ee74dbef99c965c1bb99f2e7f1a0aa0f94129067300daad8dab2161f6a")


@pytest.mark.parametrize("field, digest", [
    # the default sample 2,3,5 reduced mod p, zeros dropped, as for ar: the
    # output of --lambda 1 over GF(2), 1,2 over GF(3) and 2,3 over GF(5)
    (2, "71196f41bc01e57f888b7abec7914e296af660aee648a98bb3469cd12b6856f9"),
    (3, "a729a1ee74dbef99c965c1bb99f2e7f1a0aa0f94129067300daad8dab2161f6a"),
    (5, "9f330466ec3efea2a3ec0464fdc1e0289316d6edfba7cb395fac0da7fd91f249"),
])
@pytest.mark.hashseed
def test_verify_default_lambda_small_field_pinned(sysfile, field, digest):
    code, out = run(["verify", sysfile("tsys"), "--max-dim", "8",
                     "--field", str(field)])
    assert code == 0 and json.loads(out)["failures"] == []
    assert _sha256(out) == digest


@pytest.mark.parametrize("name, bound, field, digest", [
    # the tsys-deep and the ex14 bound-12 runs over small fields, where
    # p <= dim M for most modules and LOCAL goes through _certify
    ("tsys", 20, 2,
     "c22cbe398aff2262f70c2da7c4630525d54268638a83df5ebd29d0382f75b525"),
    ("ex14", 12, 3,
     "6f13ca777641f9b4a8a9582e006608e8c59b79a676ea4ee450bbf2f5d5cec0c7"),
])
@pytest.mark.hashseed
def test_verify_small_field_at_benchmark_bounds_pinned(sysfile, name, bound,
                                                       field, digest):
    code, out = run(["verify", sysfile(name), "--max-dim", str(bound),
                     "--field", str(field)])
    assert code == 0 and json.loads(out)["failures"] == []
    assert _sha256(out) == digest


@pytest.mark.parametrize("name, digest", [
    # every string to length 10 with its S_x and S' membership, each looked
    # up by the word itself
    ("ex14", "f21da4ca164b730c4a435211337fcb8b8701268e4c7c821b487f670cdcdb39d3"),
    ("tsys", "2bc0b3ab0058b3d59d56dd0f380487df4d8ef531229fe4e3b74ec95047c8b25e"),
])
@pytest.mark.hashseed
def test_strings_pinned(sysfile, name, digest):
    code, out = run(["strings", sysfile(name), "--max-len", "10"])
    assert code == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("argv, digest", [
    (["reduce", "ex14"],
     "eeaad01045f5ce42e13744702676bafd48d948d98645b238d0a22f38ae9d3fd4"),
    (["reduce", "tsys"],
     "b0db253955bd8a7ff1e744be186df47fb00b3bf0dd888c01a205959bc0101dac"),
    # the band sample reduced mod 3, with 1 once
    (["classify", "tsys", "--max-dim", "8", "--field", "3", "--lambda", "1,2"],
     "e10ef6a6c6e8c9d3552a9ac6c0eb331d3dfa1f50e108a23a2a11c8beb9643471"),
])
@pytest.mark.hashseed
def test_reduce_and_classify_pinned(sysfile, argv, digest):
    code, out = run([argv[0], sysfile(argv[1])] + argv[2:])
    assert code == 0
    assert _sha256(out) == digest


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
