"""Value records: immutable named tuples, with the semantics the two
classes that carry an invariant or their own equality must keep, one plain
group record, and an import that stays free of ``dataclasses`` and
``inspect``."""

import subprocess
import sys
from pathlib import Path

import pytest

from blockgraph import (
    PermGroup,
    builtin_design,
    census_report,
    classify_clique,
    close_group,
    core_restriction,
    family_params,
    make_design,
    orbit_clique_certificate,
    orbit_partition,
    validate_2design,
)
from blockgraph.perms import Permutation
from blockgraph.report import automorphism_section, build_report, builtin_generators
from blockgraph.theory import ResidueSet

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site, so no .pth file can preload modules the package does not
    # import; -W error: importing the package must not warn either
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import blockgraph, blockgraph.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'pathlib') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def public_records():
    design = builtin_design("main66")
    generators = builtin_generators(design, "main66")
    report = build_report(design, generators, "embedded generators", include_aut=True)
    census = report.census
    section, group = automorphism_section(design, census)
    noncanonical = next(r for r in census.records if r.witness is None)
    invalid = validate_2design(make_design("abcd", ["ab", "cd"]))
    return [
        design, report, census, report.validation, report.group, report.automorphisms,
        report.validation.params, census.graph, census.srg, noncanonical,
        noncanonical.shape, classify_clique(design, noncanonical.members),
        core_restriction(design, noncanonical.members), invalid.violations[0],
        section, group, close_group(generators), orbit_partition(generators), generators[0],
        ResidueSet.of(13, [1, 3, 9]),
        orbit_clique_certificate("2_a 6_a 5_a 4_b 12_b 10_b".split()),
        family_params("projective", 3, 2),
    ]


def test_every_public_record_field_is_read_only():
    records = public_records()
    assert len({type(r) for r in records}) == 20  # every record type in the package
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def test_design_equality_and_hash_ignore_name():
    a = make_design("abc", ["ab", "bc", "ac"], name="one")
    b = make_design("cba", ["ca", "ba", "cb"], name="two")
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != make_design("abc", ["ab", "bc"], name="one")
    assert repr(a) == "<one: 2-(3,2,1), 3 blocks>"
    assert a.block_masks == (3, 5, 6)  # a cached property on the instance
    for name in ("block_masks", "token_blocks", "anything"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a.block_masks == (3, 5, 6)


def test_perm_group_is_one_plain_record():
    # the closure and the graph automorphism search return the same record,
    # with tuple equality, hash and repr
    design = builtin_design("main66")
    generators = builtin_generators(design, "main66")
    one, two = close_group(generators), close_group(generators)
    _, graph_group = automorphism_section(design, census_report(design))
    assert type(one) is type(graph_group) is PermGroup
    assert PermGroup._fields == ("generators", "base", "order")
    # no public name beyond the fields, and equality, hash and ``in`` are the
    # tuple's own
    assert [k for k in vars(PermGroup) if not k.startswith("_")] == list(PermGroup._fields)
    for name in ("__eq__", "__ne__", "__hash__", "__contains__"):
        assert getattr(PermGroup, name) is getattr(tuple, name)
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert repr(one).startswith("PermGroup(generators=(Permutation(images=")


@pytest.mark.parametrize("images", [(0, 0), (1, 2), (0, 2, 1, 1)])
def test_permutation_rejects_a_non_bijection(images):
    with pytest.raises(ValueError, match="bijection"):
        Permutation(images)
    with pytest.raises(ValueError, match="bijection"):
        Permutation.identity(len(images))._replace(images=images)
