import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from affweyl import straight_newton
from affweyl.affine_weyl import (
    AffineWeylElement,
    AffineWeylError,
    finite_reflection,
    identity_element,
    iwahori_generators,
    mul,
    omega_rep,
    sigma_apply,
    sigma_from_name,
    sigma_identity,
    translation_element,
)
from affweyl.cli import main
from affweyl.linalg import identity_matrix, mat_mul, vec_mat
from affweyl.notation import _finite_word, format_element, parse_element
from affweyl.oracles import available_scopes, run_oracle_suite
from affweyl.root_datum import build_root_datum, dominance_leq
from affweyl.stembridge import stembridge_chain
from affweyl.straight_newton import b_set

GL2 = build_root_datum({"preset": "GL", "n": 2})
GL3 = build_root_datum({"preset": "GL", "n": 3})
GSP4 = build_root_datum({"preset": "GSp", "n": 4})


def test_format_examples():
    assert format_element(GL2, identity_element(GL2)) == "t[0,0]"
    assert format_element(GL2, translation_element((1, 0), GL2)) == "t[1,0]"
    tau = omega_rep(GL2, (1, 0))
    assert format_element(GL2, tau) == "t[1,0]*s1"


def test_parse_accepts_generators_and_tau():
    s0 = iwahori_generators(GL2)[0]
    assert parse_element(GL2, "s0") == s0
    assert parse_element(GL2, "tau[1,0]") == omega_rep(GL2, (1, 0))
    assert parse_element(GL2, "e") == identity_element(GL2)
    assert parse_element(GL2, "t[1,0]*s1") == mul(
        translation_element((1, 0), GL2), iwahori_generators(GL2)[1]
    )


def test_parse_rejects_garbage():
    with pytest.raises(AffineWeylError):
        parse_element(GL2, "q[1,0]")
    with pytest.raises(AffineWeylError):
        parse_element(GL2, "s9")


def test_roundtrip_random():
    rng = random.Random(0)
    for rd in (GL2, GL3, GSP4):
        gens = iwahori_generators(rd)
        for _ in range(100):
            w = identity_element(rd)
            for _ in range(rng.randrange(0, 7)):
                w = mul(w, gens[rng.randrange(len(gens))])
            w = mul(w, omega_rep(rd, tuple(rng.randint(-2, 2) for _ in range(rd.rank))))
            assert parse_element(rd, format_element(rd, w)) == w


def finite_word_by_matrices(rd, w):
    """Reference greedy word: descents from a negative-root set, steps by matrix products."""
    neg_roots = {tuple(-x for x in a) for a in rd.positive_roots}
    cur = w.finite
    word = []
    while True:
        for i, alpha in enumerate(rd.simple_roots):
            if vec_mat(alpha, cur) in neg_roots:
                word.append(i)
                cur = mat_mul(finite_reflection(rd, i).finite, cur)
                break
        else:
            if cur != identity_matrix(rd.rank):
                raise AffineWeylError("finite part is not in the finite Weyl group")
            return word


ROUNDTRIP_DATA = [GL3, GSP4, build_root_datum({"preset": "SL", "n": 3}), build_root_datum({"preset": "PGL", "n": 3})]


@st.composite
def _notation_cases(draw):
    """A word times an Omega part and a translation, twisted by the flip where there is one."""
    rd = draw(st.sampled_from(ROUNDTRIP_DATA))
    gens = iwahori_generators(rd)
    w = translation_element(draw(st.lists(st.integers(-3, 3), min_size=rd.rank, max_size=rd.rank)), rd)
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=8)):
        w = mul(w, gens[i])
    w = mul(w, omega_rep(rd, draw(st.lists(st.integers(-2, 2), min_size=rd.rank, max_size=rd.rank))))
    sigma = sigma_identity(rd) if rd is GSP4 else sigma_from_name(rd, draw(st.sampled_from(["id", "flip"])))
    return rd, sigma_apply(sigma, w)


@settings(max_examples=200)
@given(_notation_cases())
def test_format_parse_roundtrip_property(case):
    rd, w = case
    # _finite_word names affine generators; the finite ones follow the affine nodes
    n_affine = len(rd.components())
    assert _finite_word(rd, w) == tuple(n_affine + i for i in finite_word_by_matrices(rd, w))
    assert parse_element(rd, format_element(rd, w)) == w


@pytest.mark.parametrize("rd,matrix", [
    (GL3, ((0, 0, -1), (0, -1, 0), (-1, 0, 0))),  # the flip of GL3
    (GL3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1))),
    (GSP4, ((2, 0, 0), (0, 1, 0), (0, 0, 1))),
])
def test_finite_parts_outside_the_finite_weyl_group_are_refused(rd, matrix):
    w = AffineWeylElement((0,) * rd.rank, matrix)
    for word in (_finite_word, finite_word_by_matrices):
        with pytest.raises(AffineWeylError):
            word(rd, w)
    with pytest.raises(AffineWeylError):
        format_element(rd, w)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_adm_tsv(capsys):
    code, out, _ = run_cli(capsys, "adm", "--group", "GL2", "--mu", "1,0", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# group=GL2 mu=1,0 sigma=id")
    assert lines[1] == "element\tlength\tkappa"
    assert len(lines) == 5
    assert "t[1,0]*s1\t0\t1" in lines


def test_cli_outputs_are_deterministic(capsys):
    argv = ("newton", "--group", "GL3", "--mu", "1,0,0", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_cli_newton_marks_basic(capsys):
    code, out, _ = run_cli(capsys, "newton", "--group", "GL2", "--mu", "1,0")
    assert code == 0
    rows = out.strip().split("\n")[2:]
    basic_lines = [l for l in rows if l.rstrip().endswith("basic")]
    assert len(basic_lines) == 1
    assert "1/2,1/2" in basic_lines[0]


def test_cli_describe_json(capsys):
    code, out, _ = run_cli(capsys, "describe", "--group", "GSp4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["describe"]["pi1"] == "Z"
    assert payload["meta"]["tool"].startswith("affweyl/")


def test_cli_field_rows_follow_format(capsys):
    # describe and perm-check share one field/value emitter: tsv is tab-separated, table aligned
    for argv in (("describe", "--group", "GL2"), ("perm-check", "--n", "2", "--mu", "1,0")):
        code, tsv, _ = run_cli(capsys, *argv, "--format", "tsv")
        assert code == 0
        lines = tsv.strip().split("\n")
        assert lines[1] == "field\tvalue"
        assert all(line.count("\t") == 1 for line in lines[1:])
        _, table, _ = run_cli(capsys, *argv)
        assert [line.split(None, 1) for line in table.strip().split("\n")[1:]] == [
            line.split("\t") for line in lines[1:]
        ]
    _, tsv, _ = run_cli(capsys, "perm-check", "--n", "2", "--mu", "1,0", "--format", "tsv")
    assert "equal\tTrue" in tsv.split("\n")
    assert "adm_size\t3" in tsv.split("\n")


def test_cli_poset_dot(capsys):
    code, out, _ = run_cli(capsys, "poset", "--group", "GL2", "--mu", "1,0")
    assert code == 0
    assert "digraph kr_poset {" in out
    assert out.count("->") == 2


def test_cli_newton_poset_dot(capsys):
    code, out, _ = run_cli(capsys, "newton", "--group", "GL2", "--mu", "1,0", "--poset")
    assert code == 0
    assert "digraph newton_poset {" in out
    assert out.count("->") == 1


def test_cli_newton_poset_edges_are_the_dominance_covers(capsys):
    code, out, _ = run_cli(capsys, "newton", "--group", "GL3", "--mu", "2,1,0", "--poset")
    assert code == 0
    labels, edges = {}, set()
    for line in out.split("\n"):
        line = line.strip()
        if "[label=" in line:
            labels[line.split()[0]] = line.split('"')[1]
        elif "->" in line:
            a, b = line.rstrip(";").split(" -> ")
            edges.add((labels[a], labels[b]))
    # brute-force transitive reduction of the dominance order on B(G, mu)
    points = b_set((2, 1, 0), GL3, sigma_from_name(GL3, "id"))

    def below(p, q):
        return p != q and dominance_leq(p.nu, q.nu, GL3, integral=False)

    def name(p):
        return ",".join(str(x) for x in p.nu)

    covers = {
        (name(p), name(q))
        for p in points
        for q in points
        if below(p, q) and not any(below(p, r) and below(r, q) for r in points)
    }
    assert len(labels) == len(points) == 4
    assert edges == covers
    assert len(edges) == 4  # a chain on four points would have three


def test_cli_newton_builds_the_dominance_poset_once(capsys, monkeypatch):
    calls = []
    original = straight_newton.dominance_leq
    monkeypatch.setattr(
        straight_newton, "dominance_leq", lambda *a, **k: calls.append(a) or original(*a, **k)
    )
    code, out, _ = run_cli(capsys, "newton", "--group", "GL4", "--mu", "2,1,0,0", "--poset")
    assert code == 0
    n = out.count("[label=")
    assert n == 8
    # one bound check per point, then the n x n dominance matrix of one poset
    assert len(calls) == n + n * n


def test_cli_components_bound(capsys):
    code, out, _ = run_cli(
        capsys, "components-bound", "--group", "GL2", "--mu", "1,0", "--b", "basic"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b"]["nu"] == ["1/2", "1/2"]
    assert payload["witnesses"][0]["pi1_sigma_invariants"] == "Z"
    code, out, _ = run_cli(
        capsys, "components-bound", "--group", "GL2", "--mu", "1,0", "--b", "b1"
    )
    payload = json.loads(out)
    assert all(w["marker"] == "discrete: M(Q_p)/M(Z_p)" for w in payload["witnesses"])


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "adm", "--group", "XY9", "--mu", "1,0")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "stembridge", "--group", "GL2", "--mu", "1,0", "--lambda", "2,0")
    assert code == 1
    assert "KappaMismatchError" in err
    code, _, _ = run_cli(capsys, "perm-check", "--n", "3", "--mu", "1,0,0")
    assert code == 0
    for n in ("0", "-1"):
        code, out, err = run_cli(capsys, "perm-check", "--n", n, "--mu", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: perm-check needs --n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_cli_stembridge_success(capsys, fmt):
    argv = ["stembridge", "--group", "GL3", "--mu", "4,1,0", "--lambda", "2,2,1", "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    chain = stembridge_chain((2, 2, 1), (4, 1, 0), GL3)
    assert len(chain.steps) == 2
    if fmt == "json":
        payload = json.loads(out)
        assert payload["steps"] == [list(s) for s in chain.steps]
        assert payload["intermediates"] == [list(v) for v in chain.intermediates]
    else:
        lines = out.splitlines()
        assert lines[1] == f"chain from 4,1,0 down to 2,2,1: {len(chain.steps)} steps"
        assert len(lines) == 2 + len(chain.steps)


@pytest.mark.parametrize(
    "argv",
    [
        ["adm", "--group", "GL2"],
        ["describe"],
        ["adm", "--group", "GL2", "--mu", "1,0", "--sigma", "bogus"],
        ["stembridge", "--group", "GL2", "--mu", "1,0"],
        ["components-bound", "--group", "GL2", "--mu", "1,0", "--b", "b99"],
    ],
)
def test_cli_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_describe_refuses_an_affine_cartan_matrix(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    affine_a1 = {"rank": 2, "simple_roots": [[2, -2], [-2, 2]], "simple_coroots": [[1, 0], [0, 1]]}
    cfg.write_text(json.dumps({"group": affine_a1}))
    code, out, err = run_cli(capsys, "describe", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "not of finite type" in err


@pytest.mark.parametrize("label", ["GL", "GL3"])
def test_cli_describe_keeps_a_custom_label_that_names_a_preset(tmp_path, capsys, label):
    cfg = tmp_path / "cfg.json"
    group = {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]], "label": label}
    cfg.write_text(json.dumps({"group": group}))
    code, out, err = run_cli(capsys, "describe", "--config", str(cfg))
    assert code == 0
    assert err == ""
    assert ["label", label] in [line.split() for line in out.splitlines()]


def test_cli_level_flag(capsys):
    code, out, _ = run_cli(
        capsys, "adm", "--group", "GL2", "--mu", "1,0", "--level", "s1", "--format", "tsv"
    )
    assert code == 0
    rows = [l for l in out.strip().split("\n")[2:]]
    assert len(rows) == 1
    code, _, err = run_cli(capsys, "adm", "--group", "GL2", "--mu", "1,0", "--level", "s0,s1")
    assert code == 2


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "GL2", "mu": "1,0", "format": "tsv"}))
    code, out, _ = run_cli(capsys, "adm", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 5


def test_cli_config_file_missing(tmp_path, capsys):
    code, out, err = run_cli(capsys, "adm", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file")
    assert "Traceback" not in err


def test_cli_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"group": "GL2", "mu": ')
    code, out, err = run_cli(capsys, "adm", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file")
    assert "Traceback" not in err


def test_cli_config_file_with_bad_values(tmp_path, capsys):
    payloads = [
        {"group": "GL2", "mu": [1, 0]},
        {"group": "GL2", "mu": "1,0", "level": [1]},
        {"group": "GL2", "mu": "1,0", "format": "csv"},
        ["GL2"],
    ]
    for payload in payloads:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "adm", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: config ")


def test_cli_adm_mu_of_wrong_rank(capsys):
    code, out, err = run_cli(capsys, "adm", "--group", "GL3", "--mu", "1,0")
    assert code == 2
    assert out == ""
    assert "error: --mu has 2 coordinates; GL3 needs 3" in err


def test_cli_stembridge_cocharacters_of_wrong_rank(capsys):
    code, out, err = run_cli(capsys, "stembridge", "--group", "GL3", "--mu", "1,0", "--lambda", "1,0")
    assert code == 2
    assert out == ""
    assert "error: --mu has 2 coordinates; GL3 needs 3" in err
    code, _, err = run_cli(
        capsys, "stembridge", "--group", "GL3", "--mu", "1,0,0", "--lambda", "1,0"
    )
    assert code == 2
    assert "error: --lambda has 2 coordinates; GL3 needs 3" in err


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "adm.tsv"
    code, out, _ = run_cli(
        capsys, "adm", "--group", "GL2", "--mu", "1,0", "--format", "tsv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# group=GL2")


@pytest.mark.parametrize("argv,message", [
    (("describe", "--group", "GL\u00b2"), "error: cannot parse group"),
    (("adm", "--group", "GL2", "--mu", "1,0", "--level", "s\u00b9"), "error: cannot parse level generator"),
])
def test_cli_superscript_digits_are_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("argv", [
    ("adm", "--group", "GL2", "--mu", "\u0661,\u0660"),
    ("stembridge", "--group", "GL2", "--mu", "1,0", "--lambda", "\u0661,\u0660"),
    ("perm-check", "--n", "2", "--mu", "\uff11,0"),
])
def test_cli_non_ascii_coordinates_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse coordinate list")
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


@pytest.mark.parametrize("argv", [
    ("describe", "--group", "GL2"),
    ("components-bound", "--group", "GL2", "--mu", "1,0", "--b", "basic"),
    ("stembridge", "--group", "GL2", "--mu", "1,0", "--lambda", "1,0"),
])
def test_cli_commands_without_a_poset_refuse_dot(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "dot")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[0]} has no poset; dot output is not available")


CB_ARGV = ("components-bound", "--group", "GL2", "--mu", "1,0", "--b", "basic")
STEMBRIDGE_ARGV = ("stembridge", "--group", "GL2", "--mu", "1,0", "--lambda", "1,0")
UNREAD_FLAGS = [
    (("describe", "--group", "GL2"), "--level"),
    (("newton", "--group", "GL2", "--mu", "1,0"), "--level"),
    (CB_ARGV, "--level"),
    (STEMBRIDGE_ARGV, "--level"),
    (STEMBRIDGE_ARGV, "--sigma"),
]


@pytest.mark.parametrize("argv,flag", UNREAD_FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in UNREAD_FLAGS])
def test_cli_a_flag_the_command_does_not_read_is_refused(capsys, argv, flag):
    value = "s1" if flag == "--level" else "id"
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"unrecognized arguments: {flag} {value}" in out.err


@pytest.mark.parametrize("argv,flag", UNREAD_FLAGS + [(("describe", "--group", "GL2"), "--mu")],
                         ids=[f"{argv[0]}{flag}" for argv, flag in UNREAD_FLAGS] + ["describe--mu"])
def test_cli_a_config_value_for_a_flag_the_command_does_not_take_is_refused(tmp_path, capsys, argv, flag):
    key = flag[2:]
    value = {"level": "s1", "sigma": "id", "mu": "1,0"}[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config value {key}={value!r} is not accepted")


def test_cli_a_config_level_is_read_where_the_command_takes_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "GL2", "mu": "1,0", "level": "s1"}))
    by_config = run_cli(capsys, "adm", "--config", str(cfg))
    assert by_config == run_cli(capsys, "adm", "--group", "GL2", "--mu", "1,0", "--level", "s1")
    assert by_config[0] == 0 and "level=s1" in by_config[1]


FORMATS_NOT_PRINTED = [(CB_ARGV, "table"), (CB_ARGV, "tsv"), (STEMBRIDGE_ARGV, "tsv")]


@pytest.mark.parametrize("argv,fmt", FORMATS_NOT_PRINTED, ids=[f"{argv[0]}-{fmt}" for argv, fmt in FORMATS_NOT_PRINTED])
def test_cli_a_format_the_command_does_not_print_is_refused(tmp_path, capsys, argv, fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": fmt}))
    for extra in (("--format", fmt), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {argv[0]} prints ") and f"--format {fmt} is not available" in err.splitlines()[0]


def test_cli_components_bound_prints_the_same_json_with_format_json(capsys):
    code, out, _ = run_cli(capsys, *CB_ARGV)
    assert code == 0 and run_cli(capsys, *CB_ARGV, "--format", "json") == (0, out, "")


POSET_ARGV = [
    ("poset", "--group", "GL2", "--mu", "1,0"),
    ("adm", "--group", "GL2", "--mu", "1,0", "--poset"),
    ("newton", "--group", "GL2", "--mu", "1,0", "--poset"),
]


@pytest.mark.parametrize("fmt", ["table", "tsv", "json"])
@pytest.mark.parametrize("argv", POSET_ARGV, ids=lambda argv: argv[0])
def test_cli_poset_refuses_another_format(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"--format {fmt} is not available" in err.splitlines()[0]


@pytest.mark.parametrize("argv", POSET_ARGV, ids=lambda argv: argv[0])
def test_cli_poset_is_dot_with_and_without_format_dot(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "digraph" in out
    assert run_cli(capsys, *argv, "--format", "dot") == (0, out, "")


@pytest.mark.parametrize("argv", [
    ("adm", "--group", "GL2", "--mu", "1,0"),
    ("oracle-suite", "--scope", "length"),
])
@pytest.mark.parametrize("where", ["missing-dir/out.txt", "."])
def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys, argv, where):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output file")
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


def test_cli_newton_with_flip(capsys):
    code, out, _ = run_cli(
        capsys, "newton", "--group", "GL4", "--mu", "1,0,0,-1", "--sigma", "flip", "--format", "tsv"
    )
    assert code == 0
    rows = out.strip().split("\n")[2:]
    assert len(rows) == 4
    assert any("1/2,0,0,-1/2" in r for r in rows)


def test_oracle_suite_all_pass():
    results = run_oracle_suite()
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_oracle_suite_ignores_affweyl_jobs(monkeypatch):
    monkeypatch.setenv("AFFWEYL_JOBS", "abc")
    results = run_oracle_suite(scope="length")
    assert results
    assert all(r.passed for r in results)


def test_oracle_suite_scope_filter(capsys):
    results = run_oracle_suite("adm-perm")
    assert results and all(r.scope == "adm-perm" for r in results)
    assert "adm-perm" in available_scopes()
    code, out, _ = run_cli(capsys, "oracle-suite", "--scope", "negative-control")
    assert code == 0
    assert "PASS" in out
    code, _, err = run_cli(capsys, "oracle-suite", "--scope", "nope")
    assert code == 2


@pytest.mark.parametrize(
    "group",
    [
        5,
        {"preset": "GL"},
        {"preset": "GL", "n": "x"},
        {"preset": "GL", "n": 3.5},
        {"rank": 2, "simple_roots": 5, "simple_coroots": [[1, -1]]},
        {"rank": 2, "simple_roots": [[1.9, -1]], "simple_coroots": [[1, -1]]},
        {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [1]},
    ],
)
def test_cli_config_with_a_malformed_group_spec(tmp_path, capsys, group):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": group, "mu": "1,0"}))
    code, out, err = run_cli(capsys, "adm", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid group spec: ")
    assert "Traceback" not in err
