import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfuse import Claim, ingest, normalize_author_list, parse_claims, parse_golden
from truthfuse.errors import DuplicateObject, EmptyFile, ParseError
from truthfuse.ingest import parse_truths, write_claims, write_golden, write_truths


class TestNormalizeAuthorList:
    def test_and_split_with_middle_initial(self):
        assert normalize_author_list("John A. Smith and Jane Doe") == "john smith; jane doe"

    def test_surname_first_flip(self):
        assert normalize_author_list("SMITH, JOHN") == "john smith"

    def test_already_normal(self):
        assert normalize_author_list("jane doe") == "jane doe"

    def test_semicolon_separated(self):
        assert normalize_author_list("Jane Doe; John Smith") == "jane doe; john smith"

    def test_comma_separated_full_names(self):
        assert normalize_author_list("John Smith, Jane Doe") == "john smith; jane doe"

    def test_surname_first_with_middle(self):
        assert normalize_author_list("Smith, John Q.") == "john smith"

    def test_oxford_comma_before_and(self):
        assert (
            normalize_author_list("Ann Brown, Bob Clarke, and Carol Diaz")
            == "ann brown; bob clarke; carol diaz"
        )

    def test_middle_names_dropped(self):
        assert normalize_author_list("John Ronald Reuel Tolkien") == "john tolkien"

    def test_empty_input(self):
        assert normalize_author_list("") == ""
        assert normalize_author_list("  ;  and  ") == ""

    def test_internal_punctuation_kept(self):
        assert normalize_author_list("Patrick O'Brien") == "patrick o'brien"
        assert normalize_author_list("Mary Smith-Jones") == "mary smith-jones"

    def test_whitespace_collapsed(self):
        assert normalize_author_list("  jane   doe  ") == "jane doe"

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_idempotent(self, raw):
        once = normalize_author_list(raw)
        assert normalize_author_list(once) == once


class TestParseClaims:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text(
            "source,object,value\ns1,o1,alpha beta\ns2,o1,gamma delta\ns1,o2,alpha beta\n"
        )
        claims = parse_claims(path)
        assert len(claims) == 3
        assert claims[0] == Claim("s1", "o1", "alpha beta")

    def test_quoted_value_keeps_delimiter(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text('source,object,value\ns1,o1,"Smith, John; Doe, Jane"\n')
        claims = parse_claims(path)
        assert len(claims) == 1
        assert claims[0].value == "john smith; jane doe"

    def test_no_normalize_keeps_raw_value(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text('source,object,value\ns1,o1,"Smith, John"\n')
        claims = parse_claims(path, normalize=False)
        assert claims[0].value == "Smith, John"

    def test_tab_delimiter(self, tmp_path):
        path = tmp_path / "claims.tsv"
        path.write_text("source\tobject\tvalue\ns1\to1\tjane doe\n")
        claims = parse_claims(path, delimiter="\t")
        assert claims[0] == Claim("s1", "o1", "jane doe")

    def test_row_order_preserved(self, tmp_path):
        path = tmp_path / "claims.csv"
        rows = [f"s{i},o{i},v{i}" for i in range(9, -1, -1)]
        path.write_text("source,object,value\n" + "\n".join(rows) + "\n")
        claims = parse_claims(path, normalize=False)
        assert [c.source for c in claims] == [f"s{i}" for i in range(9, -1, -1)]

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("source,object,value\ns1,o1,v1\ns2,o2\n")
        with pytest.raises(ParseError) as excinfo:
            parse_claims(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("row", ["s1,o1, ", "s1, ,---", " ,o1,jane"])
    def test_blank_field_keeps_its_message(self, row, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text(f"source,object,value\n{row}\n")
        with pytest.raises(ParseError, match="blank field in row"):
            parse_claims(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("src,obj,val\ns1,o1,v1\n")
        with pytest.raises(ParseError):
            parse_claims(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            parse_claims(path)
        path.write_text("source,object,value\n")
        with pytest.raises(EmptyFile):
            parse_claims(path)

    def test_round_trip(self, tmp_path):
        claims = [
            Claim("s1", "o1", "jane doe; john smith"),
            Claim("s1", "o2", "value, with comma"),
            Claim("s2", "o1", "plato"),
        ]
        path = tmp_path / "claims.csv"
        write_claims(path, claims)
        assert parse_claims(path, normalize=False) == claims

    def test_case_study_scale_listing_file(self, tmp_path):
        from truthfuse import build_dataset
        from worlds import heavy_tailed_world

        dataset, _, _ = heavy_tailed_world()
        path = tmp_path / "listings.csv"
        write_claims(path, dataset.claims)
        claims = parse_claims(path, normalize=False)
        assert len(claims) == 24364
        parsed = build_dataset(claims)
        assert len(parsed.sources()) == 877
        assert len(parsed.objects()) == 1263


class TestParseGolden:
    def test_basic(self, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_text("object,value\no1,Jane Doe\no2,John Smith\n")
        golden = parse_golden(path)
        assert golden == {"o1": "jane doe", "o2": "john smith"}

    def test_duplicate_object(self, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_text("object,value\no1,a b\no1,c d\n")
        with pytest.raises(DuplicateObject):
            parse_golden(path)

    def test_golden_round_trip(self, tmp_path):
        golden = {"o1": "jane doe", "o2": "john smith"}
        path = tmp_path / "golden.csv"
        write_golden(path, golden)
        assert parse_golden(path, normalize=False) == golden

    def test_each_distinct_value_normalized_once(self, tmp_path, monkeypatch):
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_author_list(raw)

        monkeypatch.setattr(ingest, "normalize_author_list", counting)
        path = tmp_path / "golden.csv"
        path.write_text("object,value\no1,Jane Doe\no2, Jane Doe \no3,John Smith\n")
        golden = parse_golden(path)
        assert golden == {"o1": "jane doe", "o2": "jane doe", "o3": "john smith"}
        assert seen == ["Jane Doe", "John Smith"]

    def test_blank_value_is_a_blank_field(self, tmp_path):
        path = tmp_path / "golden.csv"
        path.write_text("object,value\no1, \n")
        with pytest.raises(ParseError, match="blank field"):
            parse_golden(path)


class TestParseTruths:
    def test_fused_output_with_probability_column(self, tmp_path):
        path = tmp_path / "truths.csv"
        write_truths(path, {"o1": "jane doe"}, {"o1": 0.875})
        truths = parse_truths(path)
        assert truths == {"o1": "jane doe"}

    def test_plain_two_column_file(self, tmp_path):
        path = tmp_path / "truths.csv"
        path.write_text("object,value\no1,jane doe\n")
        assert parse_truths(path) == {"o1": "jane doe"}


class TestCarriageReturnIds:
    """An inner carriage return in an id is refused at its line; edges are stripped."""

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_claims, 'source,object,value\nA,o1,x\n"S\r1",o2,y\n'),
            (parse_claims, 'source,object,value\nA,o1,x\nB,"o\r2",y\n'),
            (parse_golden, 'object,value\no1,x\n"o\r2",y\n'),
            (parse_truths, 'object,value,probability\no1,x,0.5\n"o\r2",y,0.5\n'),
        ],
        ids=["claims-source", "claims-object", "golden", "truths"],
    )
    def test_inner_carriage_return_is_a_parse_error(self, parse, text, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ParseError, match="carriage return") as error:
            parse(path)
        assert error.value.line == 4

    def test_edge_carriage_return_is_stripped(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text('source,object,value\n"A\r","\ro1",x\n', encoding="utf-8", newline="")
        claims = parse_claims(path)
        assert [(c.source, c.object) for c in claims] == [("A", "o1")]


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_claims, "source,object,value\nS1,o1,Jane Doe\nS2,o1,John Smith\n"),
        (parse_golden, "object,value\no1,Jane Doe\no2,John Smith\n"),
        (parse_truths, "object,value,probability\no1,jane doe,0.5\n"),
    ],
    ids=["claims", "golden", "truths"],
)
def test_leading_byte_order_mark_is_dropped(parse, text, tmp_path):
    # spreadsheet exports often start a UTF-8 file with a byte-order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse(marked) == parse(plain)
