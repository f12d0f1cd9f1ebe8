"""The checker's process-local validation mark.

A proof tree built by the rule constructors of :mod:`repro.proofs.focused`
(proof search included) or already checked in this process carries the mark,
and ``check_proof`` does not validate it again.  Trees from anywhere else
(pickles, copies, ``dataclasses.replace``, raw ``ProofNode(...)``) carry no
mark and get a full check.
"""

import copy
import dataclasses
import pickle
import random

import pytest

from repro.errors import ProofError
from repro.logic.formulas import EqUr
from repro.logic.terms import Var
from repro.nr.types import UR, SetType
from repro.nrc.expr import NDiff, NUnion, NVar
from repro.proofs import checker, focused
from repro.proofs.checker import MAX_PROOF_DEPTH, check_proof
from repro.proofs.prooftree import ProofNode, iter_nodes, proof_depth, validated_height
from repro.proofs.search import ProofSearch
from repro.proofs.sequents import Sequent
from repro.service.registry import default_registry
from repro.specs.fuzz import build_spec
from repro.synthesis.implicit_to_explicit import synthesize
from repro.witness.store import WitnessStore, export_witness

SET_UR = SetType(UR)
I1, I2, I3 = NVar("I1", SET_UR), NVar("I2", SET_UR), NVar("I3", SET_UR)
x, y = Var("x", UR), Var("y", UR)
SWEEPABLE = [entry.name for entry in default_registry().sweepable()]


@pytest.fixture(scope="module")
def union_problem():
    return build_spec(NUnion(NDiff(I1, I2), I3), "mark_union", random.Random(0), instance_count=2).problem


@pytest.fixture(scope="module")
def union_proof(union_problem):
    return ProofSearch(max_depth=12).prove(union_problem.determinacy_goal())


@pytest.fixture
def node_checks(monkeypatch):
    """Counts the rule validations ``check_proof`` performs."""
    calls = []
    original = checker._check_node

    def counting(node):
        calls.append(node)
        original(node)

    monkeypatch.setattr(checker, "_check_node", counting)
    return calls


def _distinct_nodes(proof):
    return len({id(node) for node in iter_nodes(proof)})


def _with_invalid_leaf(proof):
    """``proof`` with its first leaf replaced by an ``=`` axiom whose principal
    is not in the leaf's sequent; every node on the way is rebuilt raw."""
    if not proof.premises:
        return ProofNode("eq", proof.sequent, (), {"principal": EqUr(Var("forged", UR), Var("forged", UR))})
    first, *rest = proof.premises
    return ProofNode(proof.rule, proof.sequent, (_with_invalid_leaf(first), *rest), proof.meta)


def _pickle_with_marks(payload, monkeypatch):
    """Pickle ``payload`` with every node's whole ``__dict__`` as its state,
    a mark of 1 included, as a hand-crafted payload could.  The marks are set
    on a private copy of the tree, never on the caller's nodes."""
    payload = dict(payload, proof=copy.deepcopy(payload["proof"]))
    for node in iter_nodes(payload["proof"]):
        object.__setattr__(node, "_valid_height", 1)
    with monkeypatch.context() as patch:
        patch.setattr(ProofNode, "__getstate__", lambda self: dict(self.__dict__))
        blob = pickle.dumps(payload)
    assert b"_valid_height" in blob
    return blob


# ---------------------------------------------------------------- the mark
def test_a_searched_proof_is_marked_and_checked_without_a_rule_check(union_proof, node_checks):
    assert validated_height(union_proof) == proof_depth(union_proof)
    check_proof(union_proof)
    assert node_checks == []


@pytest.mark.parametrize(
    "duplicate",
    [
        lambda proof: pickle.loads(pickle.dumps(proof)),
        copy.deepcopy,
    ],
    ids=["pickle", "deepcopy"],
)
def test_a_pickled_or_deep_copied_proof_is_unmarked_and_fully_checked(union_proof, node_checks, duplicate):
    foreign = duplicate(union_proof)
    assert foreign == union_proof and foreign is not union_proof
    assert all(validated_height(node) == 0 for node in iter_nodes(foreign))
    assert "_valid_height" not in foreign.__getstate__()
    check_proof(foreign)
    assert len(node_checks) == _distinct_nodes(foreign)
    assert validated_height(foreign) == proof_depth(foreign)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, dataclasses.replace],
    ids=["copy", "dataclasses.replace"],
)
def test_a_shallow_copy_is_unmarked_and_its_root_is_checked(union_proof, node_checks, duplicate):
    # The premises are the original (marked) subtrees; the new root is not.
    shallow = duplicate(union_proof)
    assert shallow is not union_proof and shallow.premises == union_proof.premises
    assert validated_height(shallow) == 0
    check_proof(shallow)
    assert node_checks == [shallow]
    assert validated_height(shallow) == validated_height(union_proof)


def test_a_constructor_over_an_invalid_raw_premise_sets_no_mark():
    bogus = ProofNode("eq", Sequent.of([], [EqUr(x, y)]), (), {"principal": EqUr(x, y)})
    node = focused.make_weaken(Sequent.of([], [EqUr(x, y), EqUr(y, y)]), bogus)
    assert validated_height(bogus) == 0 and validated_height(node) == 0
    with pytest.raises(ProofError, match="reflexive"):
        check_proof(node)
    assert validated_height(node) == 0


def test_a_marked_proof_still_obeys_the_depth_bound():
    sequent = Sequent.of([], [EqUr(x, x)])
    chain = focused.make_eq_axiom(sequent, EqUr(x, x))
    for _ in range(MAX_PROOF_DEPTH - 1):
        chain = focused.make_weaken(sequent, chain)
    assert validated_height(chain) == MAX_PROOF_DEPTH
    check_proof(chain)
    # One raw node above puts the deepest leaf one level past the bound.
    with pytest.raises(ProofError, match="deeper than"):
        check_proof(ProofNode("weaken", sequent, (chain,), {}))
    # As does one more constructor level: the bound is the checker's.
    with pytest.raises(ProofError, match="deeper than"):
        check_proof(focused.make_weaken(sequent, chain))


# ----------------------------------------------------------- witness payloads
def test_a_forged_mark_in_a_payload_is_dropped_on_import_and_read(tmp_path, union_problem, union_proof, monkeypatch):
    forged = _with_invalid_leaf(union_proof)
    with pytest.raises(ProofError):
        check_proof(forged)
    blob = _pickle_with_marks(export_witness(forged, name="forged", problem=union_problem), monkeypatch)

    store = WitnessStore(tmp_path / "import")
    with pytest.raises(ProofError):
        store.import_payload(blob)
    assert len(store) == 0 and store.list() == []

    store = WitnessStore(tmp_path / "disk")
    digest = store.put(union_proof, name="union", problem=union_problem).digest
    store.path(digest).write_bytes(blob)
    assert WitnessStore(tmp_path / "disk").get(digest) is None


def test_a_replayed_witness_is_validated_once(tmp_path, union_problem, union_proof, node_checks):
    digest = WitnessStore(tmp_path).put(union_proof, name="union", problem=union_problem).digest
    assert node_checks == []  # the searched proof is marked: writing it checks nothing
    record = WitnessStore(tmp_path).get(digest)
    assert record is not None and record.proof is not union_proof
    assert len(node_checks) == _distinct_nodes(record.proof)
    node_checks.clear()
    synthesize(union_problem, proof=record.proof)
    assert node_checks == []


# --------------------------------------------------------------- outputs
@pytest.mark.parametrize("name", SWEEPABLE)
def test_outputs_do_not_depend_on_the_mark(name):
    entry = default_registry().get(name)
    problem = entry.problem()
    marked = synthesize(problem, search=ProofSearch(max_depth=entry.max_depth))
    assert validated_height(marked.proof) > 0
    foreign = pickle.loads(pickle.dumps(marked.proof))
    assert validated_height(foreign) == 0
    replayed = synthesize(problem, proof=foreign, search=ProofSearch(max_depth=entry.max_depth))
    assert validated_height(foreign) == proof_depth(foreign)
    assert _outputs(replayed) == _outputs(marked)


def _outputs(result):
    return str(result.expression), str(result.interpolant), str(result.raw_expression), result.proof_size
