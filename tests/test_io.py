import pytest

from plsphere import generators, io
from plsphere.errors import DuplicateVertexInFacet, EmptyInput


def test_parse_text_with_comments_and_blanks():
    text = "# a triangle with a flap\n\n0 1 2\n2 3  # trailing comment\n"
    assert io.parse_facet_text(text) == [[0, 1, 2], [2, 3]]


def test_parse_text_rejects_duplicates():
    with pytest.raises(DuplicateVertexInFacet):
        io.parse_facet_text("0 1 1\n")


def test_duplicate_vertex_names_its_line_and_facet():
    with pytest.raises(DuplicateVertexInFacet) as exc:
        io.parse_facet_text("# header\n1 1 2\n")
    assert exc.value.facet_index == 0
    assert str(exc.value) == "line 2: facet #0 contains a duplicate vertex: [1, 1, 2]"
    # JSON input has no lines: its message names the facet alone
    with pytest.raises(DuplicateVertexInFacet) as exc:
        io.parse_facet_json('{"facets": [[0, 1], [2, 2]]}')
    assert str(exc.value) == "facet #1 contains a duplicate vertex: [2, 2]"


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+4", "-1", "\uff11", "0x1", "1.0"])
def test_vertex_labels_are_ascii_decimal_digits(token):
    with pytest.raises(EmptyInput) as exc:
        io.parse_facet_text(f"0 1 2\n# comment\n0 1 {token}\n")
    assert str(exc.value).startswith(f"line 3: vertex label {token!r} is not")


def test_labels_of_too_many_digits_are_rejected():
    limit = io.MAX_LABEL_DIGITS
    assert io.parse_facet_text(f"0 {'9' * limit}\n") == [[0, int("9" * limit)]]
    with pytest.raises(EmptyInput) as exc:
        io.parse_facet_text(f"0 1\n0 {'1' * 5000} 2\n")
    assert str(exc.value) == "line 2: vertex label of 5000 digits is too long"
    assert io.parse_facet_json(f'{{"facets": [[0, {"9" * limit}]]}}') == [[0, int("9" * limit)]]
    with pytest.raises(EmptyInput) as exc:
        io.parse_facet_json(f'{{"facets": [[0, -{"1" * 5000}]]}}')
    assert str(exc.value) == "JSON integer of 5000 digits is too long"


def test_parse_empty_rejected():
    with pytest.raises(EmptyInput):
        io.parse_facet_text("# nothing\n")


def test_text_round_trip(tmp_path):
    K = generators.rp2_6()
    path = tmp_path / "k.fct"
    io.write_complex(K, str(path))
    assert io.read_complex(str(path)) == K


def test_json_round_trip(tmp_path):
    K = generators.saw_blade(2)
    path = tmp_path / "k.json"
    io.write_complex(K, str(path), fmt="json")
    assert io.read_complex(str(path)) == K


def test_json_detection():
    K = generators.boundary_of_simplex(3)
    text = io.facet_json(K)
    assert io.parse_facet_json(text) == [list(f) for f in K.facets]
