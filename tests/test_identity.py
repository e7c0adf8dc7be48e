"""The comparison step of scripts/identity.py on hand-made output roots."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parent.parent / "scripts" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def write(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)


def test_compare_reports_gaps_and_honours_allow(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    same = {"runs/cf/convergents.csv": "j,p\n1,1\n", "streams/cf.txt": "exit 0\n"}
    write(base, {**same, "runs/forest/w.json": '{"x": "1.5", "found": true}'})
    write(head, {**same, "runs/forest/w.json": '{"x": "1.25", "found": true}',
                 "runs/forest/w.svg": "<svg/>", "streams/forest.txt": "exit 0\n"})
    assert identity.compare(base, head, []) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "runs/forest/w.json: differs, largest numeric gap 0.25",
        "runs/forest/w.svg: only in head",
        "streams/forest.txt: only in head",
        "5 files, 3 differences not allowed",
    ]
    assert identity.compare(base, head, ["for*"]) == 0
    assert capsys.readouterr().out.endswith("5 files, 0 differences not allowed\n")


def test_numeric_gap_sees_more_than_numbers():
    assert identity.numeric_gap("a.csv", b"x,1\n", b"x,1.0\n") == 0.0
    assert identity.numeric_gap("a.csv", b"x,1\n", b"y,1\n") == float("inf")
    assert identity.numeric_gap("a.json", b"[1, 2]", b"[1]") == float("inf")
    assert identity.numeric_gap("a.svg", b"<a/>", b"<b/>") is None


def test_every_run_name_is_unique():
    names = [name for name, _ in identity.run_list()]
    assert len(names) == len(set(names))
