"""The batch CSV reader's two parsers against each other.

``read_batch`` parses plain files (printable ASCII, no quotes) in one
``np.loadtxt`` pass and everything else row by row.  Whatever the file,
both must give bit-identical arrays, or the same exception with the same
message; and text the vectorized pass cannot read exactly, non-ASCII
text above all, must never reach ``np.loadtxt``.
"""

import contextlib
import io
import json
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensorreg import experiments
from sensorreg.experiments import BATCH_COLUMNS, read_batch

SRC = Path(__file__).resolve().parent.parent / "src"

HEADER = ",".join(BATCH_COLUMNS)
VALID_CSV = (f"{HEADER}\n0,0,,0.1,0.2\n0,1,,0.3,0.4\n"
             "1,0,,0.5,0.6\n1,1,,0.7,0.8\n")
VALID_SIDECAR = json.dumps({"sensors": [
    {"id": 0, "location_m": [0.0, 0.0, 0.0]},
    {"id": 1, "location_m": [1000.0, 0.0, 0.0]}]})


def outcome(csv_text, sidecar_text, plain=True):
    """The arrays ``read_batch`` returns for the files, or the type and
    message of what it raises; ``plain=False`` keeps to the row parser."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, sidecar = Path(tmp) / "batch.csv", Path(tmp) / "sensors.json"
        # a lone surrogate \udc80-\udcff stands for that raw byte
        csv_path.write_bytes(csv_text.encode("utf-8", "surrogateescape"))
        sidecar.write_text(sidecar_text, encoding="utf-8")
        with (contextlib.nullcontext() if plain else
              mock.patch.object(experiments, "_parse_plain", return_value=None)):
            try:
                batch = read_batch(csv_path, sidecar)
            except Exception as exc:  # compare whatever either parser raises
                return type(exc), str(exc).replace(tmp, "<tmp>")
    return [batch.locations, batch.az, batch.el, batch.rng]


def assert_same(fast, rows):
    if isinstance(fast, tuple) or isinstance(rows, tuple):
        assert fast == rows
        return
    assert len(fast) == len(rows)
    for a, b in zip(fast, rows):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


INT_SPELLINGS = ["{}", "+{}", " {} ", "00{}", "\t{}"]
FLOAT_SPELLINGS = [repr, "{:e}".format, "{:.17E}".format, " {!r} ".format,
                   lambda x: repr(x) if repr(x).startswith("-") else f"+{x!r}"]
# cell text that the row parser may accept and the vectorized pass must
# not misread: each damage replaces one cell, row or line
DAMAGES = ["extra cell", "missing cell", "float in int column",
           "underscore int", "hex int", "underscore float", "quoted cell",
           "non-ASCII digit", "long range cell", "long int cell",
           "long float cell", "nan", "whitespace line", "lone CR",
           "CR in header", "NUL", "separator char", "duplicate epoch",
           "unnamed column", "repeated column"]
NOTE = st.text(string.ascii_letters + string.digits + " .-", max_size=8)
# a range cell as long as the vectorized pass's text fields, which may
# have cut it short, so the file must go row by row
LONG_RANGE_CSV = (f"{HEADER}\n0,0,{1000.0:.40e},0.1,0.2\n0,1,2000.0,0.3,0.4\n"
                  "1,0,,0.5,0.6\n1,1,,0.7,0.8\n")


@st.composite
def batch_files(draw):
    """CSV and sidecar text of a valid batch, maybe with one damage."""
    sensors = draw(st.integers(2, 3))
    epochs = draw(st.integers(2, 5))
    ids = draw(st.lists(st.integers(0, 99), min_size=sensors,
                        max_size=sensors, unique=True))
    ranged = draw(st.lists(st.booleans(), min_size=sensors, max_size=sensors))
    columns = draw(st.permutations(
        list(BATCH_COLUMNS) + (["note"] if draw(st.booleans()) else [])))
    angle = st.floats(-4.0, 4.0, allow_nan=False)
    rows = []
    for sid, has_rng in zip(ids, ranged):
        for epoch in range(epochs):
            cells = {
                "sensor_id": draw(st.sampled_from(INT_SPELLINGS)).format(sid),
                "epoch_index": draw(st.sampled_from(INT_SPELLINGS)).format(epoch),
                "rng_m": (draw(st.sampled_from(FLOAT_SPELLINGS))(
                    draw(st.floats(1e-3, 1e7))) if has_rng else ""),
                "az_rad": draw(st.sampled_from(FLOAT_SPELLINGS))(draw(angle)),
                "el_rad": draw(st.sampled_from(FLOAT_SPELLINGS))(draw(angle)),
                "note": draw(NOTE)}
            rows.append([cells[c] for c in columns])
    rows = draw(st.permutations(rows))
    header = list(columns)

    damage = draw(st.none() | st.sampled_from(DAMAGES))
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    k = draw(st.integers(0, len(rows) - 1))
    cell = {c: columns.index(c) for c in columns}
    int_col = cell[draw(st.sampled_from(["sensor_id", "epoch_index"]))]
    float_col = cell[draw(st.sampled_from(["az_rad", "el_rad"]))]
    if damage == "extra cell":
        rows[k].append("0")
    elif damage == "missing cell":
        rows[k].pop(draw(st.integers(0, len(header) - 1)))
    elif damage == "float in int column":
        rows[k][int_col] = f"{int(rows[k][int_col])}.0"
    elif damage == "underscore int":
        rows[k][int_col] = "1_0"
    elif damage == "hex int":
        rows[k][int_col] = "0x10"
    elif damage == "underscore float":
        rows[k][float_col] = "0_1.5"
    elif damage == "quoted cell":
        col = draw(st.integers(0, len(header) - 1))
        rows[k][col] = f'"{rows[k][col]}"'
    elif damage == "non-ASCII digit":
        rows[k][int_col] = rows[k][int_col].translate(
            str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    elif damage == "long range cell":
        rows[k][cell["rng_m"]] = f"{draw(st.floats(1e-3, 1e7)):.40e}"
    elif damage == "long int cell":
        # over Python's int digit limit, which counts leading zeros
        rows[k][int_col] = "0" * 5000 + rows[k][int_col].strip()
    elif damage == "long float cell":
        # over csv's field size limit
        rows[k][float_col] = "0." + "0" * 140_000 + "1"
    elif damage == "nan":
        rows[k][float_col] = draw(st.sampled_from(["nan", "-inf", "1e999"]))
    elif damage == "NUL":
        rows[k][float_col] += "\x00"
    elif damage == "separator char":
        rows[k][float_col] = "\x1c" + rows[k][float_col]
    elif damage == "duplicate epoch":
        rows.append(list(rows[k]))
    elif damage in ("unnamed column", "repeated column"):
        # the row parser reads the first column of a repeated name
        header.append("" if damage == "unnamed column"
                      else draw(st.sampled_from(BATCH_COLUMNS)))
        for row in rows:
            row.append(draw(st.sampled_from(["", "1.5", "x"])))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if damage == "CR in header":
        # csv ends the header row there
        cut = draw(st.integers(1, len(header) - 1))
        lines[0] = ",".join(header[:cut]) + "\r," + ",".join(header[cut:])
    if damage == "whitespace line":
        lines.insert(draw(st.integers(1, len(lines))), " ")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = line_end.join(lines) + draw(st.sampled_from(["", line_end]))
    if damage == "lone CR":
        text = text.replace(line_end, "\r", 1)

    sidecar = {"sensors": [
        {"id": sid, "location_m": [100.0 * s, 0.0, 0.0],
         **({"kind": "3d" if has_rng else "2d"} if draw(st.booleans()) else {})}
        for s, (sid, has_rng) in enumerate(zip(ids, ranged))]}
    return text, json.dumps(sidecar), damage


@settings(max_examples=300, deadline=None)
@given(files=batch_files())
@example(files=(LONG_RANGE_CSV, VALID_SIDECAR, "long range cell"))
def test_vectorized_pass_matches_row_parser(files):
    text, sidecar, damage = files
    fast = outcome(text, sidecar)
    assert_same(fast, outcome(text, sidecar, plain=False))
    if damage is None:
        # every valid spelling above is plain: the vectorized pass reads it
        assert not isinstance(fast, tuple)
        assert experiments._parse_plain(text) is not None


def test_plain_file_goes_through_loadtxt():
    with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt:
        assert not isinstance(outcome(VALID_CSV, VALID_SIDECAR), tuple)
    assert loadtxt.call_count == 1


@settings(max_examples=100, deadline=None)
@given(junk=st.text(min_size=1).filter(lambda t: not t.isascii() or '"' in t),
       position=st.integers(0, len(VALID_CSV)))
def test_unplain_text_never_reaches_loadtxt(junk, position):
    text = VALID_CSV[:position] + junk + VALID_CSV[position:]
    with mock.patch("numpy.loadtxt",
                    side_effect=AssertionError("loadtxt reached")) as loadtxt:
        outcome(text, VALID_SIDECAR)
    loadtxt.assert_not_called()


def test_non_ascii_cell_does_not_crash(tmp_path):
    # numpy's integer parser has crashed the process on this cell
    csv_path = tmp_path / "batch.csv"
    csv_path.write_text(f"{HEADER}\n\U000be21a,3,,0.1,0.2\n", encoding="utf-8")
    sidecar = tmp_path / "sensors.json"
    sidecar.write_text(VALID_SIDECAR)
    script = ("import sys\n"
              "from sensorreg.experiments import read_batch\n"
              "for _ in range(50):\n"
              "    try:\n"
              "        read_batch(sys.argv[1], sys.argv[2])\n"
              "    except ValueError as exc:\n"
              "        message = str(exc)\n"
              "print(message)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(csv_path), str(sidecar)],
        capture_output=True, text=True, encoding="utf-8", timeout=300,
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"})
    assert proc.returncode == 0, proc.stderr
    assert "line 2, column sensor_id" in proc.stdout


def test_bom_is_ignored():
    # Excel's "CSV UTF-8" export starts a file with one
    for plain in (True, False):
        with_bom = outcome("\ufeff" + VALID_CSV, "\ufeff" + VALID_SIDECAR, plain)
        assert not isinstance(with_bom, tuple)
        assert_same(with_bom, outcome(VALID_CSV, VALID_SIDECAR, plain))


@settings(max_examples=100, deadline=None)
@given(newline=st.sampled_from(["\n", "\r\n", "\r"]), bom=st.booleans(),
       bad=st.sampled_from(["\udcff", "\udc80", "\udcc3", "\udced\udca0\udc80"]),
       data=st.data())
def test_undecodable_bytes_name_file_and_line(newline, bom, bad, data):
    text = "\ufeff" * bom + VALID_CSV.replace("\n", newline)
    position = data.draw(st.integers(0, len(text)))
    # the line csv would give a character there: lines end in \n, \r or \r\n
    line = len(io.StringIO(text[:position] + "x", newline="").readlines())
    assert outcome(text[:position] + bad + text[position:], VALID_SIDECAR) == (
        ValueError, f"{Path('<tmp>', 'batch.csv')} line {line}: not UTF-8 text")


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale, with UTF-8 mode and locale coercion off, text
    # files open as ASCII by default; "\u0661" is a digit one to int()
    files = {"ascii.csv": VALID_CSV, "digit.csv": VALID_CSV.replace("0,1,,", "0,\u0661,,"),
             "sensors.json": VALID_SIDECAR}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    script = ("import sys\n"
              "from sensorreg.experiments import read_batch\n"
              "a, b = (read_batch(name, 'sensors.json') for name in sys.argv[1:])\n"
              "print(a.az.tobytes() == b.az.tobytes(), a.n_sensors)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "PYTHONIOENCODING"))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "ascii.csv", "digit.csv"], cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
        env={**env, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
             "PYTHONUTF8": "0"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True 2\n"


def test_non_finite_sidecar_location_names_file_and_id():
    ids = [5, 6, 7, 8]
    text = HEADER + "\n" + "".join(f"{sid},{epoch},,0.1,0.2\n"
                                   for sid in ids for epoch in (0, 1))
    sidecar = {"sensors": [{"id": sid, "location_m": [100.0 * sid, 0.0, 0.0]}
                           for sid in ids]}
    sidecar["sensors"][1]["location_m"][1] = float("nan")
    for plain in (True, False):
        kind, message = outcome(text, json.dumps(sidecar), plain)
        assert kind is ValueError
        assert message == (f"{Path('<tmp>', 'sensors.json')}: location_m of "
                           f"sensor 6 must be finite, got [600.0, nan, 0.0]")
