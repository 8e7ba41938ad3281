"""Every text input goes through one reader: one line rule, one row parser, one error format."""

import ast
from pathlib import Path

import pytest

import wicrep
from wicrep import cli
from wicrep.baselines import load_type_vectors
from wicrep.corpus import (
    Vocabulary,
    load_instances,
    read_alignment_file,
    read_parallel_corpus,
    read_text,
    read_token_lines,
)
from wicrep.errors import DataError
from wicrep.tasks import (
    load_candidate_table,
    parse_feature_queries,
    parse_lexsub_gold,
    parse_lexsub_items,
    parse_supersense_file,
)

VOCAB_COMMAND = cli.build_parser()[1]["vocab"]  # whose flags the config files below set

# Each reader as a function of a path. A corpus (like --targets) accepts any
# text, so MALFORMED has no case for it.
READERS = {
    "vocabulary": lambda p: Vocabulary.load_tsv(p).entries,
    "instances": load_instances,
    "alignments": read_alignment_file,
    "corpus": read_token_lines,
    "candidates": load_candidate_table,
    "supersense": lambda p: read_text(p, parse_supersense_file),
    "items": lambda p: read_text(p, parse_lexsub_items),
    "gold": lambda p: read_text(p, parse_lexsub_gold),
    "queries": lambda p: read_text(p, parse_feature_queries),
    "vectors": lambda p: {w: v.tolist() for w, v in load_type_vectors(p).items()},
    "config": lambda p: read_text(p, lambda text: cli._parse_config(text, VOCAB_COMMAND, "vocab")),
}

# A valid file of each format, with a blank line where the format allows one.
GOOD = {
    "vocabulary": "0\t<unk>\t0\n1\tbank\t7\n\n2\tloan\t3\n",
    "instances": "0\t3\t1 2\n\n1\t4\t5 6 7\n",
    "alignments": "0-0 1-2\n\n2-1\n",
    "corpus": "the bank\n\nof the river\n",
    "candidates": "bank\ttreasury\t5\n\nbank\tbrook\t3\n",
    "supersense": "the\tO\nbank\tnoun.group\n\nriver\tnoun.object\n",
    "items": "i1\tbank.n\t1\tthe bank\n\ni2\triver.n\t0\triver bank\n",
    "gold": "i1\ttreasury 2; lender 1\n\ni2\tshore 1\n",
    "queries": "the bank\t1\tBANCO\n\nriver\t0\tRIO\n",
    "vectors": "2 2\nbank 1 0\n\nbrook 0.5 -1\n",
    "config": "# defaults\ncap = 5\n\nmin-count=2\n",
}

# (reader, file, the malformed line's number, the message after the location)
MALFORMED = [
    ("vocabulary", "0\t<unk>\t0\n\n1\tbank\n", 3, "expected 3 tab-separated columns"),
    ("vocabulary", "0\t<unk>\t0\n1\tbank\tmany\n", 2, "non-numeric id or count"),
    ("vocabulary", "0\t<unk>\t0\n2\tbank\t1\n", 2, "ids must be dense and sorted, got 2"),
    ("instances", "0\t3\t1 2\n\n0\t3\n", 3, "expected 3 tab-separated columns"),
    ("instances", "0\t3\t1 2\n5\t3\t1 2\n", 2, "position 5 outside sentence of length 2"),
    ("alignments", "0-0\n\n1-x\n", 3, "malformed alignment link '1-x'"),
    ("candidates", "bank\ttreasury\t5\nbank\tbrook\n", 2, "expected 3 tab-separated fields"),
    ("candidates", "bank\ttreasury\t5\n\nbank\tbrook\tx\n", 3, "bad count 'x'"),
    ("supersense", "the\tO\n\nbank\n", 3, "expected 'token<TAB>label', got 'bank'"),
    ("supersense", "the\tO\n\tO\n", 2, "expected 'token<TAB>label', got '\\tO'"),
    ("items", "i1\tbank.n\t0\tbank\n\ni2\tbank\t0\tbank\n", 3, "expected 'lemma.pos', got 'bank'"),
    ("gold", "i1\tshore 1\ni2\tshore\n", 2, "bad 'substitute count' pair 'shore'"),
    ("queries", "the bank\t1\tBANCO\n\nriver\t2\tRIO\n", 3, "query position 2 outside sentence of length 1"),
    ("vectors", "2 2\nbank 1 0\n\nbrook 1\n", 4, "expected word plus 2 values, got 1"),
    ("vectors", "1 2\nbank 1 x\n", 2, "non-numeric vector entry"),
    ("vectors", "2 0\nbank\nriver\n", 1, "vector dimension must be at least 1, got 0"),
    ("vectors", "1 -2\nbank 1 0\n", 1, "vector dimension must be at least 1, got -2"),
    ("vectors", "2 2\nbank 1 0\nbrook nan 1\n", 3, "non-finite vector entry 'nan'"),
    ("vectors", "1 2\nbank 1e309 0\n", 2, "non-finite vector entry '1e309'"),
    ("config", "# defaults\ncap = 5\n\nmin-count\n", 4, "expected key=value, got 'min-count'"),
]


@pytest.mark.parametrize("reader,body,line,message", MALFORMED)
def test_a_malformed_line_is_named_with_its_file_and_line(tmp_path, reader, body, line, message):
    path = tmp_path / "input.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError) as info:
        READERS[reader](path)
    assert str(info.value) == f"{path}: line {line}: {message}"


@pytest.mark.parametrize("reader", sorted(GOOD))
def test_a_crlf_file_reads_as_its_lf_twin(tmp_path, reader):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(GOOD[reader].encode("utf-8"))
    crlf.write_bytes(GOOD[reader].replace("\n", "\r\n").encode("utf-8"))
    assert READERS[reader](crlf) == READERS[reader](lf)


@pytest.mark.parametrize("reader", sorted(GOOD))
def test_a_line_of_only_spaces_and_tabs_is_blank(tmp_path, reader):
    blank, spaces = tmp_path / "blank.txt", tmp_path / "spaces.txt"
    blank.write_text(GOOD[reader], encoding="utf-8")
    spaces.write_text(GOOD[reader].replace("\n\n", "\n \t \n"), encoding="utf-8")
    assert READERS[reader](spaces) == READERS[reader](blank)


@pytest.mark.parametrize("reader", sorted(GOOD))
def test_a_file_that_is_not_utf8_is_named(tmp_path, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff" + GOOD[reader].encode("utf-8"))
    with pytest.raises(DataError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff in position 0"):
        READERS[reader](path)


SEPARATORS = ["\u2028", "\x85", "\x0c"]


@pytest.mark.parametrize("sep", SEPARATORS)
def test_unicode_line_boundaries_stay_inside_their_line(tmp_path, sep):
    src, tgt = tmp_path / "c.src", tmp_path / "c.tgt"
    src.write_text(f"the{sep}bank\nof it\n", encoding="utf-8")
    tgt.write_text("la banca\nde eso\nextra\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"side length mismatch: {src} has 2 lines, {tgt} has 3"):
        read_parallel_corpus(src, tgt)
    tgt.write_text(f"la{sep}banca\nde eso\n", encoding="utf-8")
    pairs = read_parallel_corpus(src, tgt)
    assert [(p.source, p.target) for p in pairs] == [(["the", "bank"], ["la", "banca"]),
                                                      (["of", "it"], ["de", "eso"])]

    links = tmp_path / "a.s2t"
    links.write_text(f"0-0{sep}1-1\n2-2\n", encoding="utf-8")
    assert read_alignment_file(links) == [{(0, 0), (1, 1)}, {(2, 2)}]

    assert parse_supersense_file(f"a{sep}b\tO\nc\tnoun.act\n").sentences == [[(f"a{sep}b", "O"), ("c", "noun.act")]]

    items = parse_lexsub_items(f"i1\tbank.n\t1\tthe{sep}x bank\ni2\tbank.n\t0\tbank\n")
    assert [(i.item_id, i.sentence) for i in items] == [("i1", ["the", "x", "bank"]), ("i2", ["bank"])]


def _functions_that_read_files(tree: ast.Module):
    """(function name, line) of each call in tree that opens a file for reading."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == "open":
                    mode = child.args[1] if len(child.args) > 1 else next(
                        (kw.value for kw in child.keywords if kw.arg == "mode"), ast.Constant("r"))
                    if not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax")):
                        found.append((function, child.lineno))
                elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes", "open"):
                    found.append((function, child.lineno))
            visit(child, name)

    visit(tree, None)
    return found


def test_every_text_input_is_read_in_one_place():
    """No module splits lines with str.splitlines, and only corpus.read_text and
    train.load_checkpoint (binary) open a file for reading."""
    package = Path(wicrep.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        splitlines = [n.lineno for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr == "splitlines"]
        assert not splitlines, f"{path.name} calls splitlines on lines {splitlines}"
        readers += [(path.stem, function) for function, _ in _functions_that_read_files(tree)]
    assert sorted(readers) == [("corpus", "read_text"), ("train", "load_checkpoint")]


def test_the_structural_check_sees_a_stray_reader():
    tree = ast.parse("def f(p):\n    return open(p).read()\n"
                     "def g(p):\n    open(p, 'w').write('x')\n"
                     "def h(p):\n    return p.read_text()\n")
    assert [name for name, _ in _functions_that_read_files(tree)] == ["f", "h"]

