"""``tools/sweep.py``, the byte-identity sweep, on a three-job slice."""

import json
from pathlib import Path

from qhsa.cli import BUNDLED_DIR, main
from qhsa.structure import SUITES

from conftest import sweep

ROOT = Path(__file__).parent.parent


def test_a_three_job_slice_gives_one_digest_line_per_job(tmp_path):
    opposite = next(
        job
        for job in sweep.bench_jobs(tmp_path, seeds=(41,))
        if job.argv[:3] == ("transform", "h2.qhsa", "opposite")
    )
    emit = [job for job in sweep.fixture_jobs(tmp_path, ["h2"]) if "--emit-twist" in job.argv]
    jobs = [opposite] + emit  # the json and the text run of one drinfeld job
    lines = sweep.sweep(jobs, ROOT / "src", tmp_path)
    fields = [line.split("\t") for line in lines]
    assert [f[0] for f in fields] == [sweep.job_id(job, tmp_path) for job in jobs]
    assert str(tmp_path) not in "".join(lines) and "{work}/bundled-41/" in lines[0]
    assert [f[1:2] for f in fields] == [["exit=0"]] * 3
    empty = "stderr=" + sweep._hash(b"")
    assert [f[3] for f in fields] == [empty] * 3
    assert fields[0][4].startswith("h2-opposite.qhsa=") and not fields[0][4].endswith("=-")
    # the two formats print different reports but write the same twistor
    assert fields[1][2] != fields[2][2]
    assert fields[1][4] == fields[2][4] and fields[1][4].startswith("h2-drinfeld.twist=")


def test_timings_do_not_reach_the_digest():
    report = {"fixture": "h2", "overall": "pass", "wall_time_seconds": {"algebra": 0.1}}
    later = dict(report, wall_time_seconds={"algebra": 0.2})
    assert sweep._stable_stdout(json.dumps(report)) == sweep._stable_stdout(json.dumps(later))
    assert sweep._stable_stdout("not json\n") == "not json\n"


def test_differences_pair_the_lines_that_differ():
    mine = ["a\texit=0", "b\texit=0", "c\texit=1"]
    theirs = ["a\texit=0", "b\texit=1", "c\texit=1"]
    assert sweep.differences(mine, theirs) == [("b\texit=0", "b\texit=1")]
    assert sweep.differences(mine, mine) == []


def test_each_document_gets_every_suite_and_transform(tmp_path):
    jobs = sweep.generated_jobs(tmp_path, dimensions=(5,))
    assert [sweep.job_id(job, tmp_path) for job in jobs] == [
        sweep.job_id(job, tmp_path).replace("h2", "sparse-5").replace("fixtures", "generated")
        for job in sweep.fixture_jobs(tmp_path, ["h2"])
    ]
    assert {job.argv[3] for job in jobs if "--suites" in job.argv} == set(SUITES)
    assert {job.argv[2] for job in jobs if job.argv[0] == "transform"} == {"opposite", "prime"}
    # the one-product document fails its unit
    [line] = sweep.sweep(jobs[:1], ROOT / "src", tmp_path)
    assert line.split("\t")[:2] == ["generated: check sparse-5.qhsa --format json", "exit=1"]


def test_tensor_jobs_pair_the_fixtures_and_the_diagonal_document(tmp_path):
    jobs = sweep.tensor_jobs(tmp_path, ["h2", "ext"], dimension=5)
    pairs = [(job.argv[1], job.argv[4]) for job in jobs[::2]]
    h2, ext, diagonal = "h2.qhsa", "ext.qhsa", "diagonal-5.qhsa"
    assert pairs == [
        (h2, h2),
        (h2, ext),
        (ext, h2),
        (ext, ext),
        (diagonal, h2),
        (h2, diagonal),
        (diagonal, ext),
        (ext, diagonal),
    ]
    assert [job.argv[-1] for job in jobs] == ["json", "text"] * len(pairs)
    assert len(sweep.tensor_jobs(tmp_path)) == 2 * (len(sweep.fixture_names()) ** 2 + 4)
    # both coassociators are nontrivial, so the product is refused
    [line] = sweep.sweep(jobs[10:11], ROOT / "src", tmp_path)
    error = b"error: tensor product needs at least one trivial coassociator\n"
    assert line.split("\t")[1:4:2] == ["exit=2", "stderr=" + sweep._hash(error)]
    assert line.split("\t")[4] == "h2-diagonal-5.qhsa=-"


def test_twist_jobs_pair_each_fixture_with_the_twistors_of_its_field_and_dimension(tmp_path):
    assert sweep.twist_pairs() == [
        ("ext", "f-e11"),
        ("ext", "f-theta"),
        ("h2", "f-e11"),
        ("h2", "f-theta"),
        ("h2-broken-antipode", "f-e11"),
        ("h2-broken-antipode", "f-theta"),
        ("h2-broken-pentagon", "f-e11"),
        ("h2-broken-pentagon", "f-theta"),
        ("h2ext", "f-u11"),
        ("h2r", "f-e11-zeta4"),
        ("trivial", "f-one"),
    ]
    jobs = sweep.twist_jobs(tmp_path, ["h2"])
    assert [job.argv[:5] for job in jobs[::2]] == [
        ("transform", "h2.qhsa", "twist", "--twistor", f"{t}.twist") for t in ("f-e11", "f-theta")
    ]
    assert [job.argv[-1] for job in jobs] == ["json", "text"] * 2
    [line] = sweep.sweep(jobs[:1], ROOT / "src", tmp_path)
    assert line.split("\t")[1] == "exit=0" and not line.endswith("=-")


def _paths_that_differ(a, b, path=()):
    """The JSON paths at which a and b differ; a list of another length
    differs at its own path."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [p for k in a for p in _paths_that_differ(a[k], b[k], path + (k,))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in _paths_that_differ(x, y, path + (i,))]
    return [] if a == b else [path]


def test_each_corruption_changes_its_fixture_at_one_json_path(tmp_path):
    count = 0
    for name in sweep.fixture_names():
        original = json.loads((BUNDLED_DIR / f"{name}.qhsa").read_text())
        for suffix, corrupted in sweep.corruptions(original).items():
            [changed] = _paths_that_differ(original, corrupted)
            assert changed[0] == suffix.split("-")[0]
            count += 1
    jobs = sweep.corruption_jobs(tmp_path)
    assert count == len(list((tmp_path / "corrupted").glob("*.qhsa"))) == 230
    assert len(jobs) == 3 * 230
    h2 = json.loads((BUNDLED_DIR / "h2.qhsa").read_text())
    corrupted = sweep.corruptions(h2)
    assert corrupted["phi-negated"]["phi"][0] == [0, 0, 0, "-1"]
    assert corrupted["phi-doubled"]["phi"][0] == [0, 0, 0, "2"]
    assert corrupted["phi-dropped"]["phi"] == h2["phi"][1:]
    assert corrupted["phi-last-negated"]["phi"] == h2["phi"][:-1] + [[1, 1, 1, "1"]]
    assert corrupted["phi-last-dropped"]["phi"] == h2["phi"][:-1]
    assert corrupted["alpha-last-raised"]["alpha"] == ["1", "0"]
    assert corrupted["alpha-raised"]["alpha"] == ["2", "-1"]
    assert corrupted["parity-flipped"]["parity"] == [1, 0]
    r = sweep.corruptions(json.loads((BUNDLED_DIR / "h2r.qhsa").read_text()))
    assert r["r-negated"]["r"][0] == [0, 0, "[-1, 0]"]
    assert [job.argv[0] for job in jobs[:3]] == ["check", "drinfeld", "transform"]
    assert {job.argv[-1] for job in jobs} == {"json"}


def test_the_diagonal_document_is_checked_in_both_formats(tmp_path):
    jobs = sweep.diagonal_jobs(tmp_path, dimension=5)
    assert [job.argv for job in jobs] == [
        ("check", "diagonal-5.qhsa", "--format", "json"),
        ("check", "diagonal-5.qhsa", "--format", "text"),
    ]
    [line] = sweep.sweep(jobs[:1], ROOT / "src", tmp_path)
    assert line.split("\t")[:2] == ["diagonal: check diagonal-5.qhsa --format json", "exit=1"]


def test_a_report_written_otherwise_than_json_dumps_writes_it_hashes_apart():
    report = {"fixture": "café", "overall": "pass", "wall_time_seconds": {"algebra": 0.1}}
    written = json.dumps(report, indent=2) + "\n"
    raw = written.replace("\\u00e9", "é")  # the same report, its name not escaped
    assert json.loads(raw) == json.loads(written)
    assert sweep._stable_stdout(raw) != sweep._stable_stdout(written)
    assert sweep._stable_stdout(written) == json.dumps({"fixture": "café", "overall": "pass"})


def test_escaped_jobs_check_and_verify_copies_whose_name_needs_escaping(tmp_path, monkeypatch, capsys):
    jobs = sweep.escaped_jobs(tmp_path)
    assert [job.argv[:2] for job in jobs[::2]] == [
        (command, f"{name}-escaped.qhsa")
        for name in ("h2r", "ext")
        for command in ("check", "drinfeld")
    ]
    assert [job.argv[-1] for job in jobs] == ["json", "text"] * 4
    for name in ("h2r", "ext"):
        doc = json.loads((tmp_path / "escaped" / f"{name}-escaped.qhsa").read_text())
        assert doc["name"] == f'{name} café "quoted" back\\slash'
    [line] = sweep.sweep(jobs[:1], ROOT / "src", tmp_path)
    monkeypatch.chdir(tmp_path / "escaped")
    assert main(["check", "h2r-escaped.qhsa", "--format", "json"]) == 0
    report = capsys.readouterr().out
    # the report carries the name escaped as json.dumps escapes it, unmarked
    assert '  "fixture": "h2r caf\\u00e9 \\"quoted\\" back\\\\slash",\n' in report
    stdout = sweep._hash(sweep._stable_stdout(report).encode())
    assert line.split("\t")[1:3] == ["exit=0", f"stdout={stdout}"]
