import hashlib
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiercls import fileio
from hiercls.fileio import DataError, meta_header, read_header, read_rows, sha16

SOURCE = "--opt f.csv"

# text, read_rows options, then the (meta, rows) it gives or the error text
# after SOURCE.
CASES = {
    "skips_blank_and_comment_lines": (
        "# a=1\n\n# note\nx,y\n\n1,2\n# later=3\n3,4\n", {},
        ({"a": "1"}, [(4, ["x", "y"]), (6, ["1", "2"]), (8, ["3", "4"])])),
    "meta_dict": (
        meta_header({"b": "x=y", "a": ""}) + "#c=3\nh\nv\n", {},
        ({"a": "", "b": "x=y"}, [(4, ["h"]), (5, ["v"])])),
    "integer_columns": (
        "x,y\n1,-2\n", {"ints": (1,)}, ({}, [(1, ["x", "y"]), (2, ["1", -2])])),
    "header_function": (
        "f0,label\n1,A\n", {"header": lambda w: [f"f{i}" for i in range(w - 1)]
                                                + ["label"]},
        ({}, [(1, ["f0", "label"]), (2, ["1", "A"])])),
    "header_only": ("# a=1\nx,y\n", {}, ({"a": "1"}, [(2, ["x", "y"])])),
    "width_mismatch": (
        "x,y\n1,2\n\n3\n", {}, " line 4: 1 cells, but the header has 2"),
    "bad_integer": ("x,y\n1,z\n", {"ints": (1,)}, " line 2: 'z' is not an integer"),
    "unexpected_header": (
        "# a=1\nx,z\n1,2\n", {"header": ["x", "y"]}, " line 2: expected header 'x,y'"),
    "header_only_needs_rows": (
        "# a=1\nx,y\n\n", {"need_rows": True}, " line 2: no rows after the header"),
    "no_header_row": ("# a=1\n\n", {}, ": no header row"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_read_rows(case):
    text, options, want = CASES[case]
    if isinstance(want, str):
        with pytest.raises(DataError) as err:
            list(read_rows(text, SOURCE, **options)[1])
        assert str(err.value) == SOURCE + want
    else:
        meta, rows = read_rows(text, SOURCE, **options)
        assert (meta, list(rows)) == want


def test_rows_are_read_lazily():
    _, rows = read_rows("x\n1\n2,3\n", SOURCE)
    assert next(rows) == (1, ["x"]) and next(rows) == (2, ["1"])
    with pytest.raises(DataError, match="line 3"):
        next(rows)


# Every line boundary ``str.splitlines`` knows, and cells without commas,
# so that each line is a row of one cell.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
LINES = st.one_of(st.just(""), st.just("#"), st.just("# k=v"),
                  st.text(st.sampled_from("a #=é"), max_size=6))


@given(st.lists(st.tuples(LINES, st.sampled_from(LINE_ENDS))),
       st.booleans(), st.integers(1, 5))
def test_chunked_read_rows_yields_the_lines_of_splitlines(lines, end, chunk):
    text = "".join(line + sep for line, sep in lines)
    if not end and lines:
        text = text[:-len(lines[-1][1])]  # no line end after the last line
    all_lines = text.splitlines()
    want = [(lineno, [line]) for lineno, line in enumerate(all_lines, 1)
            if line and not line.startswith("#")]
    with mock.patch.object(fileio, "_CHUNK", chunk):
        if not want:
            with pytest.raises(DataError, match="no header row"):
                read_rows(text, SOURCE)
            return
        meta, rows = read_rows(text, SOURCE)
        assert (meta, list(rows)) == (read_header(all_lines)[0], want)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, fileio._CHUNK])
def test_chunked_sha16_matches_one_encode(chunk):
    # One- to four-byte characters, so that slice ends fall inside the
    # UTF-8 bytes of every width.
    text = "aé€\U0001d11e\n" * 7 + "z"
    with mock.patch.object(fileio, "_CHUNK", chunk):
        assert sha16(text) == hashlib.sha256(text.encode()).hexdigest()[:16]
    assert sha16("") == hashlib.sha256(b"").hexdigest()[:16]
