import pytest

from davlab import make_descriptor, parse_descriptor, validate_descriptor
from davlab.errors import ConstraintError, DescriptorError


def test_parse_roundtrip():
    for text in ["c[5]", "ab[2,2,3]", "d[8]", "q[12]", "sd[16]", "m2[32]",
                 "g1[3,1,1,1]", "g2[3,2,1,1]", "g3[3,3,2,2,1]"]:
        assert parse_descriptor(text).canonical() == text


def test_parse_errors_carry_grammar_hint():
    for bad in ["", "c", "c[]", "c[1,2,3]", "zz[3]", "g1[3,1,1]", "c[-1]", "c[1 ]"]:
        with pytest.raises(DescriptorError) as err:
            parse_descriptor(bad)
        assert "descriptors:" in str(err.value) or "parameters" in str(err.value)


def test_grammar_hint_names_each_family_with_its_parameters():
    with pytest.raises(DescriptorError) as err:
        parse_descriptor("zz[3]")
    assert str(err.value) == (
        "unknown family 'zz'; descriptors: c[n], ab[n1,n2,...], d[order], q[order], "
        "sd[order], m2[order], g1[p,alpha,beta,gamma], g2[p,alpha,beta,gamma], "
        "g3[p,alpha,beta,gamma,sigma]")


def test_param_access():
    d = parse_descriptor("g3[3,3,2,2,1]")
    assert d["p"] == 3 and d["alpha"] == 3 and d["sigma"] == 1
    assert d.pmap["gamma"] == 2
    with pytest.raises(KeyError):
        d["rho"]


def test_theoretical_orders():
    cases = {
        "c[7]": 7, "ab[2,3,4]": 24, "d[14]": 14, "q[20]": 20, "sd[24]": 24,
        "m2[64]": 64, "g1[3,2,1,1]": 81, "g2[5,2,1,1]": 125,
        "g3[3,3,2,2,1]": 729,
    }
    for text, order in cases.items():
        assert parse_descriptor(text).theoretical_order() == order


def test_validate_g1_ok():
    validate_descriptor(parse_descriptor("g1[3,1,1,1]"))
    validate_descriptor(parse_descriptor("g1[7,3,2,1]"))


def test_validate_g1_ordering_violation():
    with pytest.raises(ConstraintError, match="alpha >= beta >= gamma"):
        validate_descriptor(parse_descriptor("g1[3,1,2,1]"))


def test_validate_g1_needs_odd_prime():
    with pytest.raises(ConstraintError, match="odd prime"):
        validate_descriptor(parse_descriptor("g1[2,1,1,1]"))
    with pytest.raises(ConstraintError, match="odd prime"):
        validate_descriptor(parse_descriptor("g1[9,1,1,1]"))


def test_validate_bounds_p_before_the_primality_test():
    # 2^64 + 13 is prime; refused by size, not by the primality test
    with pytest.raises(ConstraintError, match=r"p < 2\^64"):
        validate_descriptor(parse_descriptor(f"g1[{2 ** 64 + 13},1,1,1]"))
    with pytest.raises(ConstraintError, match=r"p < 2\^64"):
        validate_descriptor(parse_descriptor(f"g2[{10 ** 40},2,1,1]"))
    # the descriptor bound is not the order cap: witness and oracle routes
    # take descriptors of any order
    validate_descriptor(parse_descriptor("g1[17,1,1,1]"))
    validate_descriptor(parse_descriptor("g1[1000000000000000003,1,1,1]"))


@pytest.mark.parametrize("text", ["g1[3,65,1,1]", "g2[3,200000,1,1]",
                                  "g3[3,65,64,64,1]"])
def test_validate_bounds_the_exponents(text):
    # checked before p ** e is ever computed, which hangs for e near 10^9
    with pytest.raises(ConstraintError, match="every exponent <= 64"):
        validate_descriptor(parse_descriptor(text))


def test_validate_takes_exponents_up_to_64():
    validate_descriptor(parse_descriptor("g1[3,64,64,64]"))
    validate_descriptor(parse_descriptor("g3[3,64,64,32,1]"))


def test_parse_refuses_parameters_past_the_int_digit_limit():
    with pytest.raises(DescriptorError, match="too many digits"):
        parse_descriptor(f"c[{'9' * 5000}]")


def test_validate_g3_alpha_sigma_constraint():
    # alpha + sigma = 3 < 2*gamma = 4
    with pytest.raises(ConstraintError, match="alpha \\+ sigma >= 2\\*gamma"):
        validate_descriptor(parse_descriptor("g3[3,2,2,2,1]"))
    validate_descriptor(parse_descriptor("g3[3,3,2,2,1]"))


def test_validate_g2_double_gamma():
    with pytest.raises(ConstraintError, match="alpha >= 2\\*gamma"):
        validate_descriptor(parse_descriptor("g2[3,3,2,2]"))
    validate_descriptor(parse_descriptor("g2[3,4,2,2]"))


def test_validate_dicyclic_minimum():
    with pytest.raises(ConstraintError, match="n >= 2"):
        validate_descriptor(parse_descriptor("q[4]"))
    with pytest.raises(ConstraintError):
        validate_descriptor(parse_descriptor("q[10]"))
    validate_descriptor(parse_descriptor("q[8]"))


def test_validate_semidihedral_minimum():
    with pytest.raises(ConstraintError, match="n >= 2"):
        validate_descriptor(parse_descriptor("sd[8]"))
    validate_descriptor(parse_descriptor("sd[16]"))
    validate_descriptor(parse_descriptor("sd[24]"))


def test_validate_modular2_minimum():
    with pytest.raises(ConstraintError, match="2\\^r with r >= 4"):
        validate_descriptor(parse_descriptor("m2[8]"))
    with pytest.raises(ConstraintError):
        validate_descriptor(parse_descriptor("m2[24]"))
    validate_descriptor(parse_descriptor("m2[16]"))


def test_make_descriptor_arity():
    with pytest.raises(DescriptorError):
        make_descriptor("g2", 3, 2, 1)
    with pytest.raises(DescriptorError):
        make_descriptor("ab")


def test_str_shortens_long_parameters_and_canonical_stays_exact():
    huge = int("9" * 3000 + "8")
    desc = make_descriptor("d", huge)
    assert str(desc) == "d[999...998 (3001 digits)]"
    assert desc.canonical() == f"d[{huge}]"
    forty = 10 ** 39  # 40 digits are shown in full
    assert str(make_descriptor("ab", forty, 3)) == f"ab[{forty},3]"
    assert str(make_descriptor("ab", 10 * forty, 3)) == "ab[100...000 (41 digits),3]"
    with pytest.raises(ConstraintError) as err:
        validate_descriptor(make_descriptor("sd", huge))
    assert str(err.value) == "sd[999...998 (3001 digits)]: requires order 8n with n >= 2"


def test_descriptor_is_a_value():
    a, b = parse_descriptor("g1[3,2,1,1]"), make_descriptor("g1", 3, 2, 1, 1)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, parse_descriptor("g1[3,1,1,1]")}) == 2
    assert a != parse_descriptor("g2[3,2,1,1]") and a != ("g1", a.params)
    assert hash(a) == hash(("g1", (("p", 3), ("alpha", 2), ("beta", 1), ("gamma", 1))))


def test_descriptor_fields_cannot_be_assigned():
    d = parse_descriptor("q[8]")
    for name in ("family", "params", "other"):
        with pytest.raises(AttributeError):
            setattr(d, name, "c")
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert d.canonical() == "q[8]"


def test_descriptor_repr_is_unchanged():
    assert repr(parse_descriptor("q[8]")) == "GroupDescriptor(family='q', params=(('order', 8),))"


def test_descriptor_survives_pickle():
    import pickle
    d = parse_descriptor("g3[3,3,2,2,1]")
    got = pickle.loads(pickle.dumps(d))
    assert got == d and hash(got) == hash(d) and repr(got) == repr(d)
