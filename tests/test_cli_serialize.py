import gc
import io
import json
import math
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dilatory.algebra import AlgebraElement, FdCStarAlgebra, StarHom, element_from_coefficients
from dilatory import cli
from dilatory.cli import main
from dilatory.cpmap import OcpMap, is_completely_positive, is_unital, tracial_map
from dilatory.dilation import AnchoredRep, stinespring_dilate
from dilatory.errors import MalformedInput
from dilatory.geometry import purification_residuals, purify_partial, purify_unitary
from dilatory.laws import LawReport, SuiteResult
from dilatory.numerics import Tolerance, hermitian_eig
from dilatory.randgen import (
    random_cp_map,
    random_dilation_pair,
    random_hom,
    rng_for,
)
from dilatory.serialize import (
    BASIS_ORDER,
    SCHEMA,
    anchored_rep_doc,
    decode_algebra,
    decode_anchored_rep,
    decode_matrix,
    decode_ocp_map,
    dumps,
    encode_algebra,
    encode_anchored_rep,
    encode_certificate,
    encode_matrix,
    encode_ocp_map,
    encode_tolerance,
    loads,
    _native,
)

TOL = Tolerance()


def rank_psd(m, tol):
    """Spectral rank and PSD test of a Hermitian matrix, as in test_numerics."""
    w, _ = hermitian_eig(m)
    if w.size == 0:
        return 0, True
    lam_max, lam_min = float(w[0]), float(w[-1])
    rank = 0 if lam_max <= tol.eps_rank else int(np.count_nonzero(w > tol.eps_rank * lam_max))
    return rank, lam_min >= -tol.eps_rank * max(lam_max, 1.0)


def test_matrix_roundtrip_bit_exact():
    rng = rng_for(90, 0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    again = decode_matrix(loads(dumps(encode_matrix(m))))
    assert np.array_equal(m.astype(complex), again)


def test_ocp_map_roundtrip_bit_exact():
    rng = rng_for(91, 0)
    phi = random_cp_map(rng, (1, 2), 2, kraus_rank=2)
    text = dumps(encode_ocp_map(phi))
    again = decode_ocp_map(loads(text))
    assert again.domain.blocks == phi.domain.blocks
    assert again.k == phi.k
    for a, b in zip(again.basis_images, phi.basis_images):
        assert np.array_equal(a, b)
    assert dumps(encode_ocp_map(again)) == text


def test_anchored_rep_roundtrip_bit_exact():
    rng = rng_for(92, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    text = dumps(encode_anchored_rep(cert.rep))
    again = decode_anchored_rep(loads(text))
    assert np.array_equal(again.V, cert.rep.V)
    assert dumps(encode_anchored_rep(again)) == text


def encode_star_hom(f: StarHom) -> dict:
    """A star_hom document, each image a list of block matrices.  No CLI
    command reads or writes one; the codec lives here as a round-trip check
    of the public matrix and algebra codecs."""
    return {
        "schema": SCHEMA,
        "kind": "star_hom",
        "basis_order": BASIS_ORDER,
        "source": encode_algebra(f.source),
        "target": encode_algebra(f.target),
        "basis_images": [
            [encode_matrix(b) for b in element_from_coefficients(f.target, c).block_data]
            for c in f.matrix.T
        ],
    }


def decode_star_hom(obj) -> StarHom:
    assert obj["schema"] == SCHEMA and obj["kind"] == "star_hom"
    target = decode_algebra(obj["target"])
    images = tuple(
        AlgebraElement(target, tuple(decode_matrix(b) for b in img))
        for img in obj["basis_images"]
    )
    return StarHom(decode_algebra(obj["source"]), target, images)


def test_star_hom_roundtrip():
    rng = rng_for(93, 0)
    f = random_hom(rng, FdCStarAlgebra((1, 2)), max_mult=2)
    text = dumps(encode_star_hom(f))
    again = decode_star_hom(loads(text))
    assert again.source.blocks == f.source.blocks
    assert again.target.blocks == f.target.blocks
    assert dumps(encode_star_hom(again)) == text


def test_decode_rejects_malformed():
    with pytest.raises(MalformedInput):
        loads("{not json")
    with pytest.raises(MalformedInput):
        decode_ocp_map({"schema": "other/v2"})
    with pytest.raises(MalformedInput):
        decode_ocp_map({"kind": "anchored_rep"})
    with pytest.raises(MalformedInput):
        decode_matrix({"rows": 2, "cols": 2, "entries": [[[0, 0]]]})


def test_decode_matrix_rejects_extra_rows(tmp_path, capsys):
    with pytest.raises(MalformedInput):
        decode_matrix({"rows": 1, "cols": 1, "entries": [[[1, 0]], [[2, 0]]]})
    payload = encode_ocp_map(tracial_map(2, 1))
    entries = payload["basis_images"][0]["entries"]
    entries.append(entries[0])
    fixture = tmp_path / "extra_row.json"
    fixture.write_text(json.dumps(payload))
    assert main(["dilate", str(fixture)]) == 3
    assert "rows" in capsys.readouterr().err


def run_cli(args, capsys=None):
    return main(args)


def test_cli_dilate_tracial_fixture(tmp_path, capsys):
    fixture = tmp_path / "tau.json"
    fixture.write_text(dumps(encode_ocp_map(tracial_map(2, 1))))
    out = tmp_path / "cert.json"
    code = main(["dilate", str(fixture), "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["dimension"] == 4
    assert cert["kind"] == "dilation_certificate"
    assert max(cert["residuals"].values()) <= 1e-9


def test_cli_dilate_scalar_fixture(tmp_path):
    phi_payload = encode_ocp_map(
        __import__("dilatory.cpmap", fromlist=["OcpMap"]).OcpMap(
            FdCStarAlgebra((1,)), 2, (np.eye(2, dtype=complex),)
        )
    )
    fixture = tmp_path / "scalar.json"
    fixture.write_text(dumps(phi_payload))
    out = tmp_path / "cert.json"
    assert main(["dilate", str(fixture), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dimension"] == 2


def _transpose_map() -> OcpMap:
    """The transpose on M_2: positive, not completely positive."""
    domain = FdCStarAlgebra((2,))
    images = []
    for _, a, b in domain.basis_labels():
        e = np.zeros((2, 2), dtype=complex)
        e[b, a] = 1.0
        images.append(e)
    return OcpMap(domain, 2, tuple(images))


def test_cli_dilate_transpose_exit_2(tmp_path, capsys):
    fixture = tmp_path / "transpose.json"
    fixture.write_text(dumps(encode_ocp_map(_transpose_map())))
    out = tmp_path / "report.json"
    code = main(["dilate", str(fixture), "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["min_eigenvalues"][0] == pytest.approx(-1.0, abs=1e-9)


def test_cli_dilate_malformed_exit_3(tmp_path):
    fixture = tmp_path / "junk.json"
    fixture.write_text("{]")
    assert main(["dilate", str(fixture)]) == 3


def test_cli_dilate_deterministic_bytes(tmp_path):
    fixture = tmp_path / "tau.json"
    fixture.write_text(dumps(encode_ocp_map(tracial_map(2, 1))))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["dilate", str(fixture), "--out", str(out1)]) == 0
    assert main(["dilate", str(fixture), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_random_deterministic_and_unital(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["random", "--seed", "1", "--blocks", "2", "--k", "2", "--kraus-rank", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["is_cp"] is True

    out3 = tmp_path / "u.json"
    assert main(args + ["--unital", "--out", str(out3)]) == 0
    unital_payload = json.loads(out3.read_text())
    assert unital_payload["is_unital"] is True


def test_cli_random_rank_one_is_ad_form(tmp_path):
    out = tmp_path / "r.json"
    assert main(["random", "--seed", "3", "--blocks", "2", "--k", "2", "--kraus-rank", "1", "--out", str(out)]) == 0
    phi = decode_ocp_map(json.loads(out.read_text()))
    from dilatory.cpmap import choi_blocks

    rank, psd = rank_psd(choi_blocks(phi)[0], TOL)
    assert (rank, psd) == (1, True)


def test_cli_random_impossible_params():
    assert main(["random", "--blocks", "", "--k", "2"]) == 3
    assert main(["random", "--blocks", "2", "--k", "2", "--kraus-rank", "0"]) == 3


def test_cli_purify_pipeline(tmp_path):
    rng = rng_for(95, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(rng, (2,), 2, TOL, extra1=[1], extra2=[1])
    p1 = tmp_path / "rep1.json"
    p2 = tmp_path / "rep2.json"
    p1.write_text(dumps(encode_anchored_rep(rep1)))
    p2.write_text(dumps(encode_anchored_rep(rep2)))
    out = tmp_path / "u.json"
    assert main(["purify", str(p1), str(p2), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["label"] == "unitary"
    assert max(payload["residuals"].values()) <= 1e-9


def test_cli_purify_exit_codes(tmp_path):
    rng = rng_for(96, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(rng, (1, 2), 1, TOL, extra1=[2, 0], extra2=[0, 2])
    p1 = tmp_path / "rep1.json"
    p2 = tmp_path / "rep2.json"
    p1.write_text(dumps(encode_anchored_rep(rep1)))
    p2.write_text(dumps(encode_anchored_rep(rep2)))
    out = tmp_path / "u.json"
    assert main(["purify", str(p1), str(p2), "--out", str(out)]) == 5
    assert main(["purify", str(p1), str(p2), "--allow-inequivalent", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["label"] == "mixed"

    # same shapes, different maps: restriction mismatch
    phi_a, _, rep_a, _ = random_dilation_pair(rng, (2,), 2, TOL)
    phi_b, _, rep_b, _ = random_dilation_pair(rng, (2,), 2, TOL)
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(dumps(encode_anchored_rep(rep_a)))
    pb.write_text(dumps(encode_anchored_rep(rep_b)))
    assert main(["purify", str(pa), str(pb), "--out", str(out)]) == 4


def test_cli_purify_refuses_well_formed_non_dilations_with_exit_3(tmp_path, capsys):
    rng = rng_for(97, 0)
    _, _, rep1, rep2 = random_dilation_pair(rng, (1, 2), 2, TOL, [1, 0], [0, 1])
    images = rep1.pi_images.copy()
    images[1] *= 2.0  # pi(E^1_00) doubled: not a projection
    doubled = AnchoredRep(rep1.algebra, rep1.k, rep1.h, images, rep1.V)
    _, _, other, _ = random_dilation_pair(rng, (2,), 2, TOL)
    zero1, zero2 = (
        AnchoredRep(r.algebra, r.k, r.h, r.pi_images, np.zeros_like(r.V)) for r in (rep1, rep2)
    )
    for (a, b), reason in (
        ((doubled, rep2), "NotRepresentation"),
        ((rep1, other), "representations anchor different spaces"),
        ((zero1, zero2), "DegenerateDimension"),
    ):
        paths = []
        for name, rep in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(dumps(encode_anchored_rep(rep)))
            paths.append(str(tmp_path / name))
        assert main(["purify", *paths]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err


_PASSED = LawReport("zigzag", 1e-15, True)
_CONTROL = LawReport("control_sabotaged_mediating", 0.01, False)


@pytest.mark.parametrize(
    "result, line",
    [
        (
            SuiteResult((_PASSED, LawReport("oplax", 0.25, False, ("draw 3",))), (_CONTROL,)),
            "law failure: oplax residual=2.500e-01 witnesses=['draw 3']",
        ),
        (
            SuiteResult((_PASSED,), (_CONTROL, LawReport("control_padding_not_hom", 1e-12, True))),
            "law failure: control:control_padding_not_hom residual=1.000e-12 witnesses=[]",
        ),
    ],
)
def test_cli_laws_names_the_first_failure_and_exits_1(capsys, monkeypatch, result, line):
    monkeypatch.setattr(cli, "run_default_suite", lambda **_: result)
    assert main(["laws", "--draws", "1"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert captured.err.splitlines() == [line]


def test_cli_laws_smoke(tmp_path):
    out = tmp_path / "laws.json"
    assert main(["laws", "--seed", "0", "--draws", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    names = {r["name"] for r in payload["reports"]}
    assert {
        "zigzag",
        "naturality_m",
        "modification",
        "oplax",
        "dagger",
        "objectwise_adjunction",
        "counterexamples",
        "partial_isometries",
    } <= names
    assert all(c["failed_as_required"] for c in payload["negative_controls"])


def test_cli_laws_zero_draws(tmp_path):
    out = tmp_path / "laws.json"
    assert main(["laws", "--draws", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True


def test_cli_laws_overtight_tolerance(tmp_path):
    out = tmp_path / "laws.json"
    assert main(["laws", "--draws", "2", "--tol", "1e-30", "--out", str(out)]) == 1


def test_cli_env_tolerance(tmp_path, monkeypatch):
    fixture = tmp_path / "tau.json"
    fixture.write_text(dumps(encode_ocp_map(tracial_map(2, 1))))
    out = tmp_path / "cert.json"
    monkeypatch.setenv("DILATORY_TOL", "1e-6")
    assert main(["dilate", str(fixture), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["tolerance"]["eps_eq"] == 1e-6
    # explicit flag wins over the environment
    assert main(["dilate", str(fixture), "--tol", "1e-9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"]["eps_eq"] == 1e-9


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, env",
    [
        (["dilate", "{fixture}", "--tol", "0"], None),
        (["dilate", "{fixture}", "--tol", "nan"], None),
        (["dilate", "{fixture}", "--tol", "inf"], None),
        (["dilate", "{fixture}", "--tol=-1e-9"], None),
        (["laws", "--draws", "1"], "-1"),
        (["laws", "--draws", "1"], "inf"),
        (["laws", "--draws", "1"], "abc"),
        (["laws", "--draws", "1", "--dims", "0"], None),
        (["dilate", "{fixture}", "--tol", "1"], None),
        (["dilate", "{fixture}", "--tol", "10"], None),
        (["dilate", "{fixture}"], "10"),
        (["laws", "--seed", "-1", "--draws", "1"], None),
        (["laws", "--seed", "-1", "--draws", "0"], None),
        (["random", "--seed", "-1"], None),
        (["laws", "--draws", "-3"], None),
    ],
)
def test_cli_impossible_numbers_exit_3(tmp_path, capsys, monkeypatch, argv, env):
    # one error line and exit 3, never a traceback or a verdict
    fixture = tmp_path / "tau.json"
    fixture.write_text(dumps(encode_ocp_map(tracial_map(2, 1))))
    if env is None:
        monkeypatch.delenv("DILATORY_TOL", raising=False)
    else:
        monkeypatch.setenv("DILATORY_TOL", env)
    out = tmp_path / "out.json"
    argv = [a.format(fixture=fixture) for a in argv] + ["--out", str(out)]
    assert _exit_code(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


_NOT_UTF8 = b'{"a": "\xff"}'


@pytest.mark.parametrize(
    "argv",
    [
        ["dilate", "{bad}"],
        ["dilate", "-"],
        ["purify", "{bad}", "{rep}"],
        ["purify", "{rep}", "{bad}"],
        ["purify", "-", "{rep}"],
    ],
)
def test_cli_non_utf8_input_exits_3(tmp_path, capsys, monkeypatch, argv):
    # bytes that are not UTF-8, in a file or on stdin, are malformed input:
    # one error line and exit 3, never a traceback and exit 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(_NOT_UTF8)
    rep = tmp_path / "rep.json"
    rep.write_text(dumps(anchored_rep_doc(stinespring_dilate(tracial_map(2, 1), TOL).rep)))
    # a Latin-1 stream would decode the bytes; they are read as UTF-8 regardless
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(_NOT_UTF8), encoding="latin-1"))
    assert _exit_code([a.format(bad=bad, rep=rep) for a in argv]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not UTF-8" in err[0]
    assert captured.out == ""


def test_cli_reads_stdin_as_utf8_bytes(tmp_path, capsys, monkeypatch):
    # stdin gives the bytes a file gives, whatever the stream's own encoding
    fixture = tmp_path / "tau.json"
    fixture.write_text(dumps(encode_ocp_map(tracial_map(2, 1))))
    assert main(["dilate", str(fixture)]) == 0
    from_file = capsys.readouterr().out
    stream = io.TextIOWrapper(io.BytesIO(fixture.read_bytes()), encoding="latin-1")
    monkeypatch.setattr(sys, "stdin", stream)
    assert main(["dilate", "-"]) == 0
    assert capsys.readouterr().out == from_file != ""


def reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 1.0, -2.5]),
)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# NaNs with other payloads and sign bits, which json spells "NaN" alike
_nans = [math.nan, -math.nan] + [_from_bits(b) for b in (0x7FF0000000000001, 0x7FF8000000000123, 0xFFF00000DEAD0000)]
_non_finite = st.sampled_from(_nans + [math.inf, -math.inf])
_floats = st.one_of(_finite, _non_finite)
_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "é", "\u00ff\u2028", "\U0001f600", '"quoted"', "back\\slash", "tab\tnew\nline\x00"]),
)
_ints = st.one_of(st.integers(-1000, 1000), st.integers(-(2**80), 2**80))


@st.composite
def _pair_rows(draw):
    """A matrix row of [re, im] float pairs, sometimes salted off the hot path."""
    row = [[draw(_finite), draw(_finite)] for _ in range(draw(st.integers(1, 4)))]
    i = draw(st.integers(0, len(row) - 1))
    j = draw(st.integers(0, 1))
    salt = draw(st.sampled_from(["none", "int", "bool", "nan", "triple", "float64"]))
    if salt == "int":
        row[i][j] = draw(_ints)
    elif salt == "bool":
        row[i][j] = draw(st.booleans())
    elif salt == "nan":
        row[i][j] = math.nan
    elif salt == "triple":
        row[i].append(draw(_finite))
    elif salt == "float64":
        row[i][j] = np.float64(row[i][j])
    return row


_json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _floats, _text, _pair_rows()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(deadline=None, max_examples=300)
@given(obj=_json_trees)
def test_dumps_matches_json_reference(obj):
    assert dumps(obj) == reference_dumps(obj)


@settings(deadline=None, max_examples=50)
@given(rows=st.lists(_pair_rows(), min_size=1, max_size=4), depth=st.integers(0, 3))
def test_dumps_matches_json_reference_on_nested_matrices(rows, depth):
    obj = {"entries": rows}
    for _ in range(depth):
        obj = {"m": [obj, {}]}
    assert dumps(obj) == reference_dumps(obj)


def test_dumps_non_string_keys_match_json():
    for obj in ({1: [], 2: {}}, {2.5: 1, math.inf: 2}, {None: 0}, {True: 1, False: 2}):
        assert dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize(
    "obj", [{1, 2}, np.int64(3), [np.int64(3)], {"a": np.bool_(True)}, {(1, 2): 0}]
)
def test_dumps_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference_dumps(obj)
    with pytest.raises(TypeError):
        dumps(obj)


def encode_matrix_per_entry(m) -> dict:
    # the per-entry loop encode_matrix replaced, kept as its reference
    a = np.asarray(m, dtype=np.complex128)
    rows, cols = a.shape
    entries = [
        [[float(a[i, j].real), float(a[i, j].imag)] for j in range(cols)]
        for i in range(rows)
    ]
    return {"rows": rows, "cols": cols, "entries": entries}


def _matrix_inputs():
    rng = rng_for(97, 0)
    c = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    c[0, 0] = complex(-0.0, -0.0)
    c[1, 2] = complex(5e-324, 1e16)
    yield c
    yield np.asfortranarray(c)
    yield c.T
    yield c[::2, ::-1]
    yield rng.standard_normal((3, 5))
    yield np.arange(6, dtype=np.int64).reshape(2, 3)
    yield np.zeros((0, 4), dtype=complex)
    yield np.zeros((4, 0), dtype=complex)
    yield [[1, 2j], [-0.0, 3.5]]


@pytest.mark.parametrize("m", list(_matrix_inputs()), ids=lambda m: str(np.shape(m)))
def test_encode_matrix_equals_per_entry_reference(m):
    # repr compares values, -0.0 and the exact float type at once
    assert repr(encode_matrix(m)) == repr(encode_matrix_per_entry(m))


def test_encode_matrix_rejects_non_matrices():
    for bad in (np.zeros(3), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(ValueError):
            encode_matrix(bad)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["random", "--seed", "2", "--blocks", "1,2", "--k", "2"], 0),
        (["dilate", "{phi}"], 0),
        (["dilate", "{transpose}"], 2),
        (["purify", "{rep1}", "{rep2}"], 0),
        (["laws", "--draws", "2"], 0),
        (["laws", "--draws", "2", "--tol", "1e-30"], 1),
    ],
    ids=["ocp_map", "certificate", "not_cp_report", "purification", "laws", "laws_error"],
)
def test_cli_output_is_canonical(tmp_path, monkeypatch, argv, code):
    monkeypatch.delenv("DILATORY_TOL", raising=False)
    rng = rng_for(98, 0)
    _, _, rep1, rep2 = random_dilation_pair(rng, (1, 2), 2, TOL, extra1=[1, 0], extra2=[1, 0])
    domain = FdCStarAlgebra((2,))
    transpose = []
    for _, a, b in domain.basis_labels():
        e = np.zeros((2, 2), dtype=complex)
        e[b, a] = 1.0
        transpose.append(e)
    inputs = {
        "phi": encode_ocp_map(random_cp_map(rng, (2, 1), 3, kraus_rank=2)),
        "transpose": encode_ocp_map(OcpMap(domain, 2, tuple(transpose))),
        "rep1": encode_anchored_rep(rep1),
        "rep2": encode_anchored_rep(rep2),
    }
    paths = {}
    for name, payload in inputs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == code
    text = out.read_text()
    assert text == reference_dumps(json.loads(text))
    if argv[-1] == "1e-30":
        assert "error" in json.loads(text)


def _native_reference(o):
    # matrix arrays replaced by the per-entry reference encoding
    if isinstance(o, np.ndarray):
        if o.ndim == 2:
            return encode_matrix_per_entry(o)
        return [encode_matrix_per_entry(m) for m in o]
    if isinstance(o, dict):
        return {key: _native_reference(value) for key, value in o.items()}
    if isinstance(o, list):
        return [_native_reference(item) for item in o]
    return o


_LAYOUTS = ["c", "f", "transposed", "strided", "reversed"]


def _relaid(a, layout):
    """a's values in another memory layout."""
    if layout == "f":
        return np.asfortranarray(a)
    if layout == "transposed":
        return np.ascontiguousarray(a.T).T
    if layout == "strided":
        big = np.zeros(tuple(2 * n + 1 for n in a.shape), dtype=a.dtype)
        view = big[(slice(1, None, 2),) * a.ndim]
        view[...] = a
        return view
    if layout == "reversed":
        flip = (slice(None, None, -1),) * a.ndim
        return np.ascontiguousarray(a[flip])[flip]
    return a


_stack_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e16, 5e-324, -5e-324, 2.0**-1030, math.inf, -math.inf] + _nans),
    _floats,
)


@st.composite
def _complex_arrays(draw, ndim=2):
    """2-D complex128 arrays, or 3-D stacks of 0-3 of them, whose rows repeat
    within and across matrices, with signed zeros, extremes and odd layouts.

    Most stacks draw their values from a pool of a few, so equal values
    (equal bits) recur across rows and matrices."""
    count = draw(st.integers(0, 3)) if ndim == 3 else 1
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    few = st.lists(_stack_values, min_size=1, max_size=5).map(st.sampled_from)
    values = draw(st.one_of(st.just(_stack_values), few))
    # [re, im] pairs of Python floats, which keep a NaN's payload and sign
    cell = st.lists(values, min_size=2, max_size=2)
    pool = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=1, max_size=3))
    # a row that differs from the first only where that one has a signed zero
    pool.append([[-x if x == 0 else x for x in c] for c in pool[0]])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=count * rows, max_size=count * rows))
    pairs = np.array([pool[p] for p in picks], dtype=np.float64).reshape(count, rows, cols, 2)
    a = pairs.view(np.complex128)[..., 0]
    return _relaid(a if ndim == 3 else a[0], draw(st.sampled_from(_LAYOUTS)))


@settings(deadline=None, max_examples=300)
@given(a=_complex_arrays(), b=_complex_arrays(), stack=_complex_arrays(ndim=3), depth=st.integers(0, 3))
def test_dumps_of_array_documents_matches_json_reference(a, b, stack, depth):
    obj = {"m": a, "raw": [b, a, {"again": b}], "images": stack}
    for _ in range(depth):
        obj = {"m": [obj, {"x": b, "s": stack}]}
    # repr compares values, -0.0, NaN and the exact float type at once
    assert repr(_native(obj)) == repr(_native_reference(obj))
    assert dumps(obj) == reference_dumps(_native(obj))


class _ArraySubclass(np.ndarray):
    pass


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2)),
        np.zeros(3, dtype=complex),
        np.zeros((2, 2, 2, 2), dtype=complex),
        np.zeros((2, 2), dtype=object),
        np.zeros((2, 2), dtype=np.complex64),
        np.zeros((2, 2), dtype=">c16"),
        np.zeros((2, 2), dtype=complex).view(_ArraySubclass),
    ],
    ids=["float64", "1-D", "4-D", "object", "complex64", "big-endian", "subclass"],
)
def test_dumps_rejects_other_arrays(bad):
    with pytest.raises(TypeError):
        reference_dumps(_native({"entries": bad}))
    with pytest.raises(TypeError):
        dumps({"entries": bad})


@settings(deadline=None, max_examples=300)
@given(stack=_complex_arrays(ndim=3), other=_complex_arrays(ndim=3), depth=st.integers(0, 3))
@example(stack=np.zeros((0, 2, 2), dtype=complex), other=np.zeros((2, 0, 3), dtype=complex), depth=0)
@example(stack=np.zeros((3, 2, 0), dtype=complex), other=np.ones((1, 1, 1), dtype=complex), depth=1)
def test_dumps_of_matrix_object_lists_matches_json_reference(stack, other, depth):
    # a 3-D array is written as the list of the matrix objects of its
    # matrices, all their rows de-duplicated together
    obj = {"pi_images": stack, "V": other[-1] if len(other) else stack, "more": [other, None, stack]}
    for _ in range(depth):
        obj = {"m": [obj, {"x": other}]}
    assert repr(_native(obj)) == repr(_native_reference(obj))
    assert dumps(obj) == reference_dumps(_native(obj))


@pytest.mark.parametrize("layout", _LAYOUTS[1:])
def test_encoders_read_any_layout_as_the_contiguous_one(layout):
    rng = rng_for(99, 0)
    phi, cert, rep, _ = random_dilation_pair(rng, (1, 2), 3, TOL, extra1=[1, 1])

    def relaid_rep(r):
        images, v = _relaid(r.pi_images, layout), _relaid(r.V, layout)
        assert not (images.flags.c_contiguous or v.flags.c_contiguous)
        return AnchoredRep(r.algebra, r.k, r.h, images, v)

    pairs = [
        (encode_ocp_map, OcpMap(phi.domain, phi.k, _relaid(phi.basis_images, layout)), phi),
        (encode_anchored_rep, relaid_rep(rep), rep),
        (encode_certificate, replace(cert, rep=relaid_rep(cert.rep)), cert),
        (encode_matrix, _relaid(rep.V, layout), rep.V),
    ]
    for encode, relaid, contiguous in pairs:
        assert repr(encode(relaid)) == repr(encode(contiguous))


@st.composite
def _float_lists(draw):
    """Lists of floats and np.float64s, or of plain floats only, all finite
    or with one NaN or infinity at any position."""
    kind = draw(st.sampled_from(["mixed", "finite", "one non-finite"]))
    if kind == "mixed":
        return draw(st.lists(st.one_of(_floats, _floats.map(np.float64)), min_size=1, max_size=8))
    values = draw(st.lists(_finite, min_size=1 if kind == "finite" else 0, max_size=8))
    if kind == "one non-finite":
        values.insert(draw(st.integers(0, len(values))), draw(_non_finite))
    return values


@settings(deadline=None, max_examples=100)
@given(values=_float_lists(), depth=st.integers(0, 2))
def test_dumps_of_float_lists_matches_json_reference(values, depth):
    obj = {"gram_eigenvalues": values}
    for _ in range(depth):
        obj = {"m": [obj]}
    assert dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("blocks, k", [("4,4", 3), ("3,3,3", 2), ("6", 4), ("2,3", 3)])
def test_cli_dilate_certificates_are_json_bytes(tmp_path, monkeypatch, blocks, k, seed):
    monkeypatch.delenv("DILATORY_TOL", raising=False)
    code, phi = _cli_text(tmp_path, ["random", "--seed", str(seed), "--blocks", blocks, "--k", str(k)])
    assert code == 0 and phi == reference_dumps(json.loads(phi))
    fixture = tmp_path / "phi.json"
    fixture.write_text(phi)
    code, text = _cli_text(tmp_path, ["dilate", str(fixture)])
    assert code == 0
    assert text == reference_dumps(json.loads(text))


def _cli_text(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


@pytest.mark.parametrize(
    "blocks, k, rank", [((9,), 3, 3), ((2, 3), 3, 3), ((1, 2), 2, 1), ((1,), 1, 1)]
)
def test_cli_dilate_equals_reference_encoding(tmp_path, monkeypatch, blocks, k, rank):
    monkeypatch.delenv("DILATORY_TOL", raising=False)
    phi = random_cp_map(rng_for(99, 0), blocks, k, kraus_rank=rank)
    fixture = tmp_path / "phi.json"
    fixture.write_text(json.dumps(encode_ocp_map(phi)))
    code, text = _cli_text(tmp_path, ["dilate", str(fixture)])
    assert code == 0
    cert = stinespring_dilate(decode_ocp_map(loads(fixture.read_text())), TOL)
    assert text == reference_dumps(encode_certificate(cert))


def test_cli_not_cp_report_equals_reference_encoding(tmp_path, monkeypatch):
    monkeypatch.delenv("DILATORY_TOL", raising=False)
    # the transpose on M_2 + M_1, block-diagonal on C^3
    domain = FdCStarAlgebra((2, 1))
    transpose = []
    for j, a, b in domain.basis_labels():
        e = np.zeros((3, 3), dtype=complex)
        e[2 * j + b, 2 * j + a] = 1.0
        transpose.append(e)
    phi = OcpMap(domain, 3, tuple(transpose))
    fixture = tmp_path / "transpose.json"
    fixture.write_text(json.dumps(encode_ocp_map(phi)))
    code, text = _cli_text(tmp_path, ["dilate", str(fixture)])
    assert code == 2
    report = {
        "schema": SCHEMA,
        "kind": "not_cp_report",
        "min_eigenvalues": [float(x) for x in is_completely_positive(phi, TOL).min_eigenvalues],
    }
    assert text == reference_dumps(report)


@pytest.mark.parametrize("unital", [False, True])
def test_cli_random_equals_reference_encoding(tmp_path, monkeypatch, unital):
    monkeypatch.delenv("DILATORY_TOL", raising=False)
    argv = ["random", "--seed", "5", "--blocks", "2,3", "--k", "3", "--kraus-rank", "2"]
    code, text = _cli_text(tmp_path, argv + (["--unital"] if unital else []))
    assert code == 0
    phi = random_cp_map(rng_for(5, 0), (2, 3), 3, kraus_rank=2, unital=unital)
    payload = encode_ocp_map(phi)
    payload.update(seed=5, is_cp=is_completely_positive(phi, TOL).is_cp, is_unital=is_unital(phi, TOL))
    assert text == reference_dumps(payload)


@pytest.mark.parametrize("extra", [([1, 0], [0, 1]), ([1, 1], [1, 1])], ids=["mixed", "unitary"])
def test_cli_purify_equals_reference_encoding(tmp_path, monkeypatch, extra):
    monkeypatch.delenv("DILATORY_TOL", raising=False)
    rng = rng_for(100, 0)
    _, _, rep1, rep2 = random_dilation_pair(rng, (1, 2), 2, TOL, extra1=extra[0], extra2=extra[1])
    paths = []
    for i, rep in enumerate((rep1, rep2)):
        paths.append(tmp_path / f"rep{i}.json")
        paths[-1].write_text(json.dumps(encode_anchored_rep(rep)))
    code, text = _cli_text(tmp_path, ["purify", str(paths[0]), str(paths[1]), "--allow-inequivalent"])
    assert code == 0
    r1, r2 = (decode_anchored_rep(loads(p.read_text())) for p in paths)
    u, label = purify_partial(r1, r2, TOL)
    payload = {
        "schema": SCHEMA,
        "kind": "purification",
        "label": label,
        "U": encode_matrix(u),
        "residuals": {k: float(v) for k, v in sorted(purification_residuals(u, r1, r2).items())},
        "tolerance": encode_tolerance(TOL),
    }
    assert text == reference_dumps(payload)
    if label == "unitary":
        assert np.array_equal(u, purify_unitary(r1, r2, TOL))


def decode_matrix_per_entry(obj) -> np.ndarray:
    # the per-entry loop decode_matrix replaced, kept as its reference
    rows = int(obj["rows"])
    cols = int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows:
        raise MalformedInput(f"matrix has {len(entries)} rows, expected {rows}")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i in range(rows):
        row = entries[i]
        if len(row) != cols:
            raise MalformedInput(f"row {i} has {len(row)} entries, expected {cols}")
        for j in range(cols):
            re, im = row[j]
            out[i, j] = complex(float(re), float(im))
    return out


_MALFORMED_ENTRIES = [
    (2, 2, [[[0, 0], [0, 0]], [[0, 0]]]),  # ragged rows
    (1, 2, [[[0, 0], [0, 0], [0, 0]]]),  # a row too long
    (2, 1, [[[0, 0]]]),  # a row missing
    (1, 1, [[[0, 0]], [[0, 0]]]),  # an extra row
    (1, 2, [[[0, 0], [1]]]),  # a 1-element pair
    (1, 1, [[[0, 0, 0]]]),  # a 3-element pair
    (1, 2, [[[0, 0], [None, 1]]]),  # null entry
    (1, 1, [[None]]),  # null pair
    (1, 1, [None]),  # null row
    (1, 1, None),
    (1, 1, [[[[0], 0]]]),  # nested list in a pair
    (1, 1, [[[0, [1, 2]]]]),
    (2, 2, [[[[0, 0]], [[0, 0]]], [[[0, 0]], [[0, 0]]]]),  # one level too deep
    (1, 1, [[["a", 0]]]),
    (1, 1, [[{"re": 0}]]),
    (1, 1, [[[10**400, 0]]]),
    (1, 1, 5),
    (2, 1, "ab"),
    (0, 1, [[]]),
    (1, 0, [[[]]]),
    (2, 0, [[], [[]]]),
    (1, 1, [[]]),
]


@pytest.mark.parametrize("rows, cols, entries", _MALFORMED_ENTRIES)
def test_decode_matrix_rejects_what_the_loop_rejected(rows, cols, entries):
    obj = {"rows": rows, "cols": cols, "entries": entries}
    with pytest.raises(Exception):
        decode_matrix_per_entry(obj)
    with pytest.raises(MalformedInput):
        decode_matrix(obj)


_json_numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.225e-308, 1e16, -1e308, 1.7976931348623157e308]),
    st.integers(-(2**80), 2**80),
)


@settings(deadline=None, max_examples=200)
@given(
    shape=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    data=st.data(),
)
def test_decode_matrix_equals_per_entry_reference(shape, data):
    rows, cols = shape
    entries = data.draw(
        st.lists(
            st.lists(st.lists(_json_numbers, min_size=2, max_size=2), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    obj = {"rows": rows, "cols": cols, "entries": entries}
    got, expected = decode_matrix(obj), decode_matrix_per_entry(obj)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # bit for bit: -0.0 and NaN too
    parsed = loads(json.dumps(obj))
    assert decode_matrix(parsed).tobytes() == decode_matrix_per_entry(parsed).tobytes()
    if not np.isnan(got).any():  # json writes every NaN as the same NaN
        assert decode_matrix(loads(dumps(encode_matrix(got)))).tobytes() == got.tobytes()


@settings(deadline=None, max_examples=100)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    bad=st.sampled_from([True, False, None, "1e0", "1", "0"]),
    data=st.data(),
)
def test_decode_matrix_rejects_entries_that_are_not_json_numbers(shape, bad, data):
    """A bool, null or numeric string anywhere among the entries is
    malformed, though numpy's float conversion reads each of them."""
    rows, cols = shape
    entries = [[[0.5, -1] for _ in range(cols)] for _ in range(rows)]
    i, j, part = (data.draw(st.integers(0, n - 1)) for n in (rows, cols, 2))
    entries[i][j][part] = bad
    with pytest.raises(MalformedInput, match="not JSON numbers"):
        decode_matrix({"rows": rows, "cols": cols, "entries": entries})


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": 1.9, "cols": True, "entries": [[[1, 0]]]},
        {"rows": 1.0, "cols": 1, "entries": [[[1, 0]]]},
        {"rows": 1, "cols": False, "entries": [[]]},
        {"rows": "1", "cols": 1, "entries": [[[1, 0]]]},
        {"rows": -1, "cols": 1, "entries": []},
    ],
)
def test_decode_matrix_rejects_non_integer_sizes(obj):
    with pytest.raises(MalformedInput):
        decode_matrix(obj)


def _pairs_of_one_and_three(m):
    row = m["entries"][0]
    (a, b), c = row[0], row[1]
    row[:2] = [[a], [b] + c]  # the flat count stays 4


def _pair(value):
    def edit(m):
        m["entries"][0][0] = value(m["entries"][0][0])

    return edit


# malformed matrix objects of 2 columns that a walk over the flattened
# numbers alone could take for well formed
_FLAT_WALK_MISSES = {
    "pairs-of-1-and-3": _pairs_of_one_and_three,
    "string-pair": _pair(lambda p: "12"),
    "dict-pair": _pair(lambda p: {"re": p[0], "im": p[1]}),
    "deeper-pair": _pair(lambda p: [p]),
    "rows-0": lambda m: m.update(rows=0),
    "string-row": lambda m: m["entries"].__setitem__(0, "12"),
    "huge-int": _pair(lambda p: [10**400, p[1]]),
}


@pytest.mark.parametrize("edit", _FLAT_WALK_MISSES.values(), ids=_FLAT_WALK_MISSES.keys())
def test_decoders_refuse_what_a_flat_walk_could_miss(tmp_path, capsys, edit):
    def edited(m):
        m = json.loads(json.dumps(m))
        edit(m)
        return m

    with pytest.raises(MalformedInput):
        decode_matrix(edited(encode_matrix(np.arange(6.0).reshape(3, 2) - 2.5j)))

    # a basis image of a map on M_2, k = 2, through dilate
    payload = encode_ocp_map(tracial_map(2, 2))
    payload["basis_images"][1] = edited(payload["basis_images"][1])
    fixture = tmp_path / "map.json"
    fixture.write_text(json.dumps(payload))
    assert main(["dilate", str(fixture), "--out", str(tmp_path / "cert.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ")

    # the anchor V (h x 2) of the second rep, through purify
    rep = stinespring_dilate(tracial_map(2, 2), TOL).rep
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dumps(encode_anchored_rep(rep)))
    payload = encode_anchored_rep(rep)
    payload["V"] = edited(payload["V"])
    bad.write_text(json.dumps(payload))
    assert main(["purify", str(good), str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_decoders_read_image_lists_as_the_per_entry_reference():
    phi = random_cp_map(rng_for(101, 0), (2, 3), 3, kraus_rank=2)
    rep = stinespring_dilate(phi, TOL).rep
    for payload, decode, key in (
        (encode_ocp_map(phi), decode_ocp_map, "basis_images"),
        (encode_anchored_rep(rep), decode_anchored_rep, "pi_images"),
    ):
        payload = loads(dumps(payload))
        got = getattr(decode(payload), key)
        expected = np.stack([decode_matrix_per_entry(m) for m in payload[key]])
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "edit",
    [
        lambda images: images.__setitem__(1, encode_matrix(np.eye(images[1]["rows"] + 1))),
        lambda images: images[1].update(rows=images[1]["rows"] + 1),
        lambda images: images[1].update(cols=images[1]["cols"] + 1),
        lambda images: images.append(images[0]),
        lambda images: images.pop(),
    ],
    ids=["other-shape", "rows-off", "cols-off", "one-extra", "one-missing"],
)
def test_decoders_refuse_an_image_list_of_another_shape(tmp_path, capsys, edit):
    payload = encode_ocp_map(tracial_map(2, 2))
    edit(payload["basis_images"])
    with pytest.raises(MalformedInput):
        decode_ocp_map(payload)
    fixture = tmp_path / "map.json"
    fixture.write_text(json.dumps(payload))
    assert main(["dilate", str(fixture), "--out", str(tmp_path / "cert.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ")

    rep = stinespring_dilate(tracial_map(2, 2), TOL).rep
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dumps(encode_anchored_rep(rep)))
    payload = encode_anchored_rep(rep)
    edit(payload["pi_images"])
    with pytest.raises(MalformedInput):
        decode_anchored_rep(payload)
    bad.write_text(json.dumps(payload))
    assert main(["purify", str(good), str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_decode_rejects_non_integer_block_sizes():
    for blocks in ([2.7], [2.0], [True], "23", [2, "3"]):
        with pytest.raises(MalformedInput):
            decode_algebra({"blocks": blocks})
    assert decode_algebra({"blocks": [2, 3]}).blocks == (2, 3)


def test_decode_rejects_non_integer_k_and_h():
    rep = stinespring_dilate(tracial_map(2, 1), TOL).rep
    for key, value in (("k", 1.0), ("k", True), ("h", 2.0), ("h", float(rep.h))):
        payload = encode_anchored_rep(rep)
        payload[key] = value
        with pytest.raises(MalformedInput):
            decode_anchored_rep(payload)
    payload = encode_ocp_map(tracial_map(2, 1))
    payload["k"] = 1.0
    with pytest.raises(MalformedInput):
        decode_ocp_map(payload)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p["basis_images"][0].update(rows=1.9),
        lambda p: p["basis_images"][0].update(cols=True),
        lambda p: p["domain"].update(blocks=[2.7]),
        lambda p: p.update(k=1.0),
    ],
    ids=["rows-float", "cols-bool", "blocks-float", "k-float"],
)
def test_cli_dilate_non_integer_sizes_exit_3(tmp_path, capsys, edit):
    payload = encode_ocp_map(tracial_map(2, 1))
    edit(payload)
    fixture = tmp_path / "sizes.json"
    fixture.write_text(json.dumps(payload))
    assert main(["dilate", str(fixture), "--out", str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr().err.startswith("error: ")



def test_cli_builds_its_parser_once(tmp_path, monkeypatch, request):
    import argparse
    import types

    from dilatory import cli

    built = []

    class Spy(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    cli.build_parser.cache_clear()
    request.addfinalizer(cli.build_parser.cache_clear)
    # argparse itself looks ArgumentParser up by name, so only cli's view changes
    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=Spy))
    out = str(tmp_path / "out.json")
    assert main(["random", "--seed", "1", "--out", out]) == 0
    assert main(["dilate", out, "--out", str(tmp_path / "cert.json")]) == 0
    assert main(["laws", "--draws", "1", "--out", out]) == 0
    assert built.count("dilatory") == 1
    # argparse errors exit 3 after a good call, and leave no state
    assert _exit_code(["laws", "--draws", "x"]) == 3
    assert _exit_code(["laws", "--seed", "2", "--draws", "1", "--out", out]) == 0
    assert json.loads(open(out).read())["seed"] == 2
    assert built.count("dilatory") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["laws", "--draws", "x"], 3),
        (["dilate"], 3),
        (["purify", "rep1.json"], 3),
        (["frobnicate"], 3),
        ([], 3),
        (["laws", "--help"], 0),
        (["--help"], 0),
    ],
)
def test_cli_usage_errors_exit_3_and_help_exits_0(capsys, argv, code):
    # 2 is the contract's "not completely positive", never a usage error
    assert _exit_code(argv) == code
    assert "usage: dilatory" in capsys.readouterr()[code != 0]


def _cycles_left(argv):
    """(exit code, cyclic garbage found afterwards) of main(argv) run with
    the collector off, as main itself runs a command."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        code = _exit_code(argv)
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_cli_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    # a paused collector is only safe if no command path makes a cycle
    tau = tmp_path / "tau.json"
    tau.write_text(dumps(encode_ocp_map(tracial_map(2, 1))))
    not_cp = tmp_path / "transpose.json"
    not_cp.write_text(dumps(encode_ocp_map(_transpose_map())))
    junk = tmp_path / "junk.json"
    junk.write_text("{]")

    def reps(name, pair):
        paths = [tmp_path / f"{name}{i}.json" for i in (1, 2)]
        for path, rep in zip(paths, pair):
            path.write_text(dumps(encode_anchored_rep(rep)))
        return [str(p) for p in paths]

    rng = rng_for(96, 0)
    same = reps("same", random_dilation_pair(rng, (2,), 2, TOL, [1], [1])[2:])
    mixed = reps("mixed", random_dilation_pair(rng, (1, 2), 1, TOL, [2, 0], [0, 2])[2:])
    other = reps("other", (random_dilation_pair(rng, (2,), 2, TOL)[2],
                           random_dilation_pair(rng, (2,), 2, TOL)[2]))
    out = ["--out", str(tmp_path / "out.json")]
    cases = [
        (["dilate", str(tau)], 0),
        (["dilate", str(not_cp)], 2),
        (["dilate", str(junk)], 3),
        (["dilate", str(tmp_path / "missing.json")], 3),
        (["dilate", str(tau), "--tol", "nan"], 3),
        (["purify", *same], 0),
        (["purify", *mixed, "--allow-inequivalent"], 0),
        (["purify", *other], 4),
        (["purify", *mixed], 5),
        (["laws", "--seed", "1", "--draws", "3"], 0),
        (["laws", "--draws", "2", "--tol", "1e-30"], 1),
        (["laws", "--seed", "-1"], 3),
        (["random", "--seed", "2", "--blocks", "1,2"], 0),
        (["random", "--blocks", "", "--k", "2"], 3),
    ]
    for argv, code in cases:
        assert _cycles_left(argv + out) == (code, 0), argv


def test_cli_restores_the_collector_however_main_ends(monkeypatch, tmp_path, capsys):
    from dilatory import cli

    out = str(tmp_path / "out.json")
    seen = []

    def broken(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["random", "--seed", "1", "--out", out]) == 0
            assert gc.isenabled() is enabled
            assert _exit_code(["laws", "--seed", "-1", "--out", out]) == 3
            assert gc.isenabled() is enabled
            assert _exit_code(["laws", "--draws", "x"]) == 3
            assert gc.isenabled() is enabled
            with monkeypatch.context() as m:
                m.setattr(cli, "random_cp_map", broken)
                with pytest.raises(RuntimeError, match="boom"):
                    main(["random", "--seed", "1", "--out", out])
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
    # the command itself ran with the collector paused
    assert seen == [False, False]
