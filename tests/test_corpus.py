import json
import random
from dataclasses import replace
from sys import intern

import pytest

from razor import corpus
from razor.corpus import (
    Dataset,
    load_dataset,
    make_document,
    mismatched_line,
    parse_label_names,
    read_documents,
    replace_text,
    save_dataset,
    tokenize,
)
from razor.errors import DataError, NoContrastError

from conftest import dataset_from
from oracles import tokenize_reference


class TestTokenize:
    def test_rule_application(self):
        assert tokenize("Not a 2013 film.") == ["not", "a", "2013", "film"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_casefold_and_whitespace_collapse(self):
        assert tokenize("  A   a ") == ["a", "a"]

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("well -- yes!") == ["well", "yes"]

    def test_unicode_punctuation_stripped(self):
        assert tokenize("«quoted» text…") == ["quoted", "text"]

    def test_only_punctuation_at_the_ends_is_stripped(self):
        text = "$5 (a) x! ¿qué? don't 🙂 +1 e-mail ２０２４ ...x.y..."
        assert tokenize(text) == [
            "$5", "a", "x", "qué", "don't", "🙂", "+1", "e-mail", "２０２４", "x.y"
        ]

    def test_tokens_are_shared_strings(self):
        first, second = tokenize("shared word"), tokenize("".join(["sha", "red"]) + " other")
        assert first[0] is second[0]

    def test_matches_scalar_reference(self):
        pieces = [
            "don't", "(a)", "«x»", "¿qué?", "…", "‘x’", "—", "x—y", "--", "?!", "...",
            "_", "__init__", "snake_case", "$5", "+", "a+b", "e\u0301", "\u0301x", "x\u0301.",
            "ß", "İ", "İstanbul", "Straße.", "２０２４", "🙂", "x.y", "Word", "42", "ok",
        ]
        words = ["alpha", "Beta", "7", "ß", "naïve", "ΣΟΦΙΑ", "２０２４", "x2"]
        separators = [" ", "  ", "\t", "\n", "\xa0", "\u3000", "\x1c"]
        rng = random.Random(16)
        texts = ["", " ", "\t\x1c", "all plain words here"]
        for _ in range(400):
            # half the texts hold only letters and digits, half mix in the pieces
            pool = words if len(texts) % 2 else words + pieces
            parts = rng.choices(pool, k=rng.randint(0, 12))
            # an empty joint glues two parts into one token
            text = "".join(rng.choice(separators + [""]) + part for part in parts)
            texts.append(text)
        for text in texts:
            tokens = tokenize(text)
            assert tokens == tokenize_reference(text), repr(text)
            assert all(token is intern(token) for token in tokens)

    def test_deterministic(self):
        text = "The  Quick, brown FOX; jumps — over 12 dogs."
        assert tokenize(text) == tokenize(text)


class TestDocument:
    def test_tokens_cached_coherently(self):
        d = make_document("x", "The cat SAT.", 0)
        assert list(d.tokens) == tokenize(d.mutable_text)

    def test_empty_after_normalization_rejected(self):
        with pytest.raises(DataError):
            make_document("x", " ... !! ", 0)

    def test_replace_text_keeps_identity(self):
        d = make_document("x", "old words here", 1, context_text="ctx")
        r = replace_text(d, "new words appear here")
        assert (r.id, r.label, r.context_text) == ("x", 1, "ctx")
        assert list(r.tokens) == ["new", "words", "appear", "here"]

    def test_position_consistency(self):
        d = make_document("x", "alpha beta gamma delta", 0)
        produced = tokenize(d.mutable_text)
        for j, token in enumerate(d.tokens):
            assert produced[j] == token


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            dataset_from([("a", "some text here", 0), ("a", "other text here", 1)])

    def test_undeclared_label_rejected(self):
        docs = (make_document("a", "some text", 0), make_document("b", "more text", 1))
        with pytest.raises(DataError, match="label"):
            Dataset(docs, {0: "zero"}, "single")

    def test_single_label_rejected(self):
        with pytest.raises(NoContrastError):
            dataset_from([("a", "some text", 0), ("b", "other text", 0)])

    def test_unknown_schema_rejected(self, tmp_path):
        docs = (make_document("a", "some text", 0), make_document("b", "more text", 1))
        with pytest.raises(DataError, match="unknown schema 'nosuch'"):
            Dataset(docs, {0: "zero", 1: "one"}, "nosuch")
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "text": "some text", "label": 0}\n')
        with pytest.raises(DataError, match="unknown schema 'nosuch'"):
            read_documents(path, "nosuch")


class TestReplacing:
    def dataset(self):
        return dataset_from([("a", "alpha one", 0, "ctx a"), ("b", "beta two", 1, "ctx b"),
                             ("c", "gamma three", 0, "ctx c")], schema="claim_evidence")

    def test_patches_only_the_given_rows(self, monkeypatch):
        ds = self.dataset()
        new = replace_text(ds.documents[2], "gamma rewritten")
        # the whole dataset is not checked again
        monkeypatch.setattr(Dataset, "__post_init__", lambda self: pytest.fail("re-checked"))
        patched = ds.replacing({2: new})
        assert patched.documents == ds.documents[:2] + (new,)
        assert (patched.label_names, patched.schema) == (ds.label_names, ds.schema)
        assert ds.documents[2].mutable_text == "gamma three"
        assert ds.replacing({}) == ds

    @pytest.mark.parametrize("field, value, problem", [
        ("id", "b", r"document 'b' is not the input's 'a' at row 0"),
        ("label", 1, r"document 'a' does not match the input's label or context"),
        ("context_text", "other", r"document 'a' does not match the input's label or context"),
    ])
    def test_a_row_keeps_its_id_label_and_context(self, field, value, problem):
        ds = self.dataset()
        with pytest.raises(DataError, match=f"^{problem}$"):
            ds.replacing({0: replace(ds.documents[0], **{field: value})})


class TestLoadSave:
    def write_lines(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_load_claim_evidence(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_lines(
            path,
            [
                {"id": "1", "claim": "x is tall", "evidence": "x measures 2m", "label": 1},
                {"id": "2", "claim": "y is short", "evidence": "y measures 2m", "label": 0},
                {"id": "3", "claim": "z is tall", "evidence": "z measures 1m", "label": 0},
            ],
        )
        ds = load_dataset(path, "claim_evidence", {0: "refutes", 1: "supports"})
        assert len(ds) == 3
        assert ds.documents[0].mutable_text == "x is tall"
        assert ds.documents[0].context_text == "x measures 2m"
        assert ds.schema == "claim_evidence"

    def test_premise_hypothesis_field_mapping(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_lines(
            path,
            [
                {"id": "1", "premise": "a man walks", "hypothesis": "someone moves", "label": 0},
                {"id": "2", "premise": "a man walks", "hypothesis": "nobody moves", "label": 1},
            ],
        )
        ds = load_dataset(path, "premise_hypothesis")
        assert ds.documents[0].mutable_text == "someone moves"
        assert ds.documents[0].context_text == "a man walks"

    def test_integer_ids_read_as_decimal_strings(self, tmp_path):
        # FEVER's ids are JSON numbers
        path = tmp_path / "data.jsonl"
        self.write_lines(
            path,
            [
                {"id": 75397, "text": "one text here", "label": 0},
                {"id": "x1", "text": "two text here", "label": 1},
            ],
        )
        ds = load_dataset(path, "single")
        assert [d.id for d in ds] == ["75397", "x1"]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "1", "text": "ok fine", "label": 0}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, "single")

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_lines(
            path,
            [
                {"id": "a", "text": "first text", "label": 0},
                {"id": "a", "text": "second text", "label": 1},
            ],
        )
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, "single")

    def test_label_outside_declared_set_named(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_lines(
            path,
            [
                {"id": "a", "text": "first text", "label": 0},
                {"id": "b", "text": "second text", "label": 7},
            ],
        )
        with pytest.raises(DataError, match="7"):
            load_dataset(path, "single", {0: "zero", 1: "one"})

    def test_missing_field_for_schema(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_lines(path, [{"id": "a", "claim": "no evidence here", "label": 0}])
        with pytest.raises(DataError, match="evidence"):
            load_dataset(path, "claim_evidence")

    def test_null_field_treated_as_missing(self, tmp_path):
        path = tmp_path / "data.jsonl"
        self.write_lines(
            path,
            [{"id": "a", "claim": "fine claim", "evidence": None, "label": 0}],
        )
        with pytest.raises(DataError, match="evidence"):
            load_dataset(path, "claim_evidence")

    def test_inferred_labels_warn(self, tmp_path, caplog):
        path = tmp_path / "data.jsonl"
        self.write_lines(
            path,
            [
                {"id": "a", "text": "first text", "label": 0},
                {"id": "b", "text": "second text", "label": 1},
            ],
        )
        with caplog.at_level("WARNING", logger="razor"):
            ds = load_dataset(path, "single")
        assert ds.label_names == {0: "0", 1: "1"}
        assert any("inferred" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("schema", ["single", "claim_evidence", "premise_hypothesis"])
    def test_round_trip(self, tmp_path, schema):
        rows = []
        for i in range(10):
            row = {"id": f"d{i}", "label": i % 2}
            if schema == "single":
                row["text"] = f"document number {i} reads fine"
            elif schema == "claim_evidence":
                row["claim"] = f"claim number {i} stands"
                row["evidence"] = f"evidence for {i}"
            else:
                row["premise"] = f"premise for {i}"
                row["hypothesis"] = f"hypothesis number {i} holds"
            rows.append(row)
        path = tmp_path / "in.jsonl"
        self.write_lines(path, rows)
        ds = load_dataset(path, schema, {0: "zero", 1: "one"})
        out = tmp_path / "out.jsonl"
        save_dataset(ds, out)
        again = load_dataset(out, schema, {0: "zero", 1: "one"})
        assert again == ds

    def test_round_trip_preserves_unicode_and_schema_keys(self, tmp_path):
        path = tmp_path / "in.jsonl"
        self.write_lines(
            path,
            [
                {"id": "a", "claim": "café réouvert — enfin", "evidence": "le café", "label": 0},
                {"id": "b", "claim": "rien ne change", "evidence": "le café", "label": 1},
            ],
        )
        ds = load_dataset(path, "claim_evidence")
        out = tmp_path / "out.jsonl"
        save_dataset(ds, out)
        line = out.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(line) == {
            "id": "a",
            "claim": "café réouvert — enfin",
            "evidence": "le café",
            "label": 0,
        }
        assert load_dataset(out, "claim_evidence") == ds

    @pytest.mark.parametrize("schema", ["single", "claim_evidence", "premise_hypothesis"])
    def test_saved_lines_are_json_dumps_bytes(self, schema, tmp_path):
        texts = [
            'she said "no" twice',
            "back\\slash and C:\\path\\",
            "tab\there, bell\x07 and escape\x1b chars\nover two lines\r",
            "line\u2028separator and paragraph\u2029separator",
            "naïve café — 東京 🙂 déjà vu",
        ]
        rows = []
        for i, text in enumerate(texts):
            row = {"id": f'id "{i}" \\ ü'}
            context = f"context {texts[-1 - i]}"
            fields = {"single": [("text", text)],
                      "claim_evidence": [("claim", text), ("evidence", context)],
                      "premise_hypothesis": [("premise", context), ("hypothesis", text)]}
            row.update(fields[schema])
            row["label"] = i % 3
            rows.append(row)
        path = tmp_path / "in.jsonl"
        self.write_lines(path, rows)
        labels = {0: "zero", 1: "one", 2: "two"}
        ds = load_dataset(path, schema, labels)
        out = tmp_path / "out.jsonl"
        save_dataset(ds, out)
        expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        assert out.read_bytes() == expected.encode("utf-8")
        assert load_dataset(out, schema, labels) == ds

    def test_save_to_unwritable_path(self, tmp_path):
        ds = dataset_from([("a", "some text", 0), ("b", "other text", 1)])
        with pytest.raises(OSError):
            save_dataset(ds, tmp_path / "nope" / "deep" / "out.jsonl")

    def test_empty_documents_dataset_unconstructible(self):
        with pytest.raises(NoContrastError):
            Dataset((), {0: "zero", 1: "one"}, "single")


TRICKY_TEXTS = [
    'she said "no" twice',
    "back\\slash and C:\\path\\",
    "tab\there, bell\x07 and escape\x1b chars\nover two lines\r",
    "line\u2028separator and paragraph\u2029separator",
    "naïve café — 東京 🙂 déjà vu",
]


def tricky_dataset(schema, n=12):
    context = "context" if schema != "single" else None
    docs = tuple(
        make_document(f'id "{i}" ü', f"{TRICKY_TEXTS[i % 5]} {i}", i % 3,
                      context and f"{context} {TRICKY_TEXTS[-1 - i % 5]}")
        for i in range(n)
    )
    return Dataset(docs, {0: "zero", 1: "one", 2: "two"}, schema)


def rewritten(dataset, rows, text):
    return dataset.replacing({i: replace_text(dataset.documents[i], f"{text} {i}") for i in rows})


@pytest.fixture
def formatted(monkeypatch):
    """The ids of the documents save_dataset formats, one list per call."""
    calls = []
    line_format = corpus._line_format

    def counting(schema):
        fmt, ids = line_format(schema), []
        calls.append(ids)
        return lambda doc: ids.append(doc.id) or fmt(doc)

    monkeypatch.setattr(corpus, "_line_format", counting)
    return calls


class TestSaveIds:
    """save_dataset with ``ids`` writes the lines of the documents whose id
    is in ``ids``, in row order, each with the bytes of a full save's line."""

    @pytest.mark.parametrize("schema", ["single", "claim_evidence", "premise_hypothesis"])
    def test_writes_exactly_the_listed_documents(self, tmp_path, schema, formatted):
        ds = tricky_dataset(schema)
        full, delta = tmp_path / "full.jsonl", tmp_path / "delta.jsonl"
        # first, last and adjacent rows; texts of other byte lengths than before
        steps = [({0, 3, 4, 11}, "ẞ 東京東京 🙂🙂"), ({4, 5, 6}, "x"), (set(), ""), ({1}, "y é")]
        for rows, text in steps:
            ds = rewritten(ds, rows, text)
            save_dataset(ds, delta, [ds.documents[i].id for i in rows])
            save_dataset(ds, full)
            lines = full.read_bytes().splitlines(keepends=True)
            assert len(lines) == len(ds)
            assert delta.read_bytes() == b"".join(lines[i] for i in sorted(rows))
            assert formatted[-2] == [ds.documents[i].id for i in sorted(rows)]
            assert read_documents(delta, schema) == [ds.documents[i] for i in sorted(rows)]

    def test_ids_out_of_order_are_written_in_row_order(self, tmp_path, formatted):
        ds = tricky_dataset("claim_evidence")
        save_dataset(ds, tmp_path / "full.jsonl")
        lines = (tmp_path / "full.jsonl").read_bytes().splitlines(keepends=True)
        save_dataset(ds, tmp_path / "s.jsonl", [ds.documents[i].id for i in (9, 2, 5, 0)])
        assert (tmp_path / "s.jsonl").read_bytes() == b"".join(lines[i] for i in (0, 2, 5, 9))
        assert formatted[-1] == [ds.documents[i].id for i in (0, 2, 5, 9)]

    def test_id_of_no_document_writes_nothing(self, tmp_path, formatted):
        ds = tricky_dataset("premise_hypothesis")
        save_dataset(ds, tmp_path / "s.jsonl", ["no-such-id"])
        assert (tmp_path / "s.jsonl").read_bytes() == b""
        assert formatted == [[]]

    def test_no_ids_writes_every_document(self, tmp_path, formatted):
        ds = tricky_dataset("single")
        save_dataset(ds, tmp_path / "full.jsonl")
        save_dataset(ds, tmp_path / "s.jsonl", None)
        assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()
        assert [len(ids) for ids in formatted] == [len(ds)] * 2


class TestMismatchedLine:
    """The byte check of a file against the lines save_dataset writes."""

    @pytest.mark.parametrize("edit, line", [
        (lambda lines: lines, None),
        (lambda lines: lines[:2] + [lines[2].replace(b"context", b"contexts")] + lines[3:], 3),
        (lambda lines: lines[:-1], 12),
        (lambda lines: lines + lines[:1], 13),
        (lambda lines: lines[:-1] + [lines[-1].rstrip(b"\n")], 12),
        (lambda lines: lines[1:], 1),
    ])
    def test_first_differing_line(self, tmp_path, edit, line, formatted):
        ds = tricky_dataset("premise_hypothesis")
        path = tmp_path / "saved.jsonl"
        save_dataset(ds, path)
        path.write_bytes(b"".join(edit(path.read_bytes().splitlines(keepends=True))))
        assert mismatched_line(ds, path) == line
        # one formatter, and no line formatted past the first that differs
        assert len(formatted) == 2 and len(formatted[1]) == min(line or len(ds), len(ds))


class TestReadDocuments:
    def test_reads_what_a_dataset_may_not_hold(self, tmp_path):
        """One label, or no lines at all: the checks on the whole dataset are
        load_dataset's."""
        ds = tricky_dataset("single")
        one_label = [d for d in ds if d.label == 2]
        path = tmp_path / "part.jsonl"
        path.write_text("".join(corpus._line_format("single")(d) for d in one_label))
        assert read_documents(path, "single", ds.label_names) == one_label
        with pytest.raises(NoContrastError):
            load_dataset(path, "single", ds.label_names)
        path.write_text("")
        assert read_documents(path, "single") == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"id": "a", "text": "alpha", "label": 0}\n\n  \t\n'
                        '{"id": "b", "text": "beta", "label": 1}\n\n')
        assert [doc.id for doc in read_documents(path, "single")] == ["a", "b"]

    def test_line_checks_name_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for second, problem in (("b", "label 1 not in declared label set"),
                                ("a", "duplicate id 'a'")):
            path.write_text('{"id": "a", "text": "alpha", "label": 0}\n'
                            f'{{"id": "{second}", "text": "beta", "label": 1}}\n')
            with pytest.raises(DataError, match=rf"bad\.jsonl: line 2: {problem}"):
                read_documents(path, "single", {0: "zero"})


class TestParseLabelNames:
    def test_basic(self):
        assert parse_label_names("0=refutes,1=supports") == {0: "refutes", 1: "supports"}

    def test_bad_id(self):
        with pytest.raises(DataError):
            parse_label_names("x=oops")

    def test_missing_name(self):
        with pytest.raises(DataError):
            parse_label_names("0=")

    def test_repeated_id_rejected(self):
        with pytest.raises(DataError, match="label 0 declared twice"):
            parse_label_names("0=a,0=b,1=c")
