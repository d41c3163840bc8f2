"""The value types: every public class on `errors.Frozen` compares,
hashes, shows itself, refuses assignment and copies like a frozen
dataclass."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import qsca
from qsca import (frt_quantum, gates, qstate, quantize, sca_core, spin_chain,
                  unitary_compile)
from qsca.errors import Frozen


def particle():
    return sca_core.Particle(3, (sca_core.BasicString("10"),
                                 sca_core.BasicString("01")))


# one construction of each public value type, and its repr
SAMPLES = {
    "Rule": (lambda: sca_core.Rule(2), "Rule(radius=2)"),
    "Configuration": (lambda: sca_core.Configuration(-1, "0110"),
                      "Configuration(origin=0, bits=(1, 1))"),
    "BasicString": (lambda: sca_core.BasicString((1, 0, 1)),
                    "BasicString(bits=(1, 0, 1))"),
    "Particle": (particle, "Particle(start_site=3, blocks=("
                 "BasicString(bits=(1, 0)), BasicString(bits=(0, 1))))"),
    "FrtPrediction": (
        lambda: sca_core.frt_predict(sca_core.Rule(1), particle()),
        "FrtPrediction(l_counts=(1, 2, 1), return_times=(1, 3, 4), "
        "predicted_blocks=(14, 7), period=4)"),
    "FrtTimeCheck": (lambda: sca_core.FrtTimeCheck(3, 0, True, -1),
                     "FrtTimeCheck(time=3, pattern_index=0, matched=True, "
                     "shift=-1)"),
    "FrtReport": (
        lambda: sca_core.FrtReport(
            sca_core.FrtPrediction((1,), (1,), (), 1), False, 1,
            (sca_core.FrtTimeCheck(1, 0, None, None),)),
        "FrtReport(prediction=FrtPrediction(l_counts=(1,), "
        "return_times=(1,), predicted_blocks=(), period=1), "
        "condition_held=False, failed_at=1, checks=(FrtTimeCheck(time=1, "
        "pattern_index=0, matched=None, shift=None),))"),
    "Not": (lambda: gates.Not(2), "Not(q=2)"),
    "Cn": (lambda: gates.Cn(1, 3), "Cn(control=1, target=3)"),
    "CollectiveCn": (lambda: gates.CollectiveCn(1, 3, 2),
                     "CollectiveCn(control_block=1, target_block=3, "
                     "block_len=2)"),
    "BlockReset": (lambda: gates.BlockReset(1, 2, "literal"),
                   "BlockReset(block=1, block_len=2, variant='literal')"),
    "Circuit": (lambda: gates.Circuit(3, [gates.Cn(1, 2), gates.Not(3)]),
                "Circuit(n_qubits=3, ops=(Cn(control=1, target=2), "
                "Not(q=3)))"),
    "FrtStagePlan": (lambda: frt_quantum.FrtStagePlan(2, 1, 2),
                     "FrtStagePlan(L=2, padding=1, block_len=2)"),
    "FrtRunReport": (lambda: frt_quantum.run_frt(["11"], 1),
                     "FrtRunReport(radius=1, L=1, padding=1, "
                     "reset_variant='extended', indices=(12, 3), "
                     "final_ok=True)"),
    "StageIdentityReport": (
        lambda: frt_quantum.StageIdentityReport(1, 1, 3, 2, 0),
        "StageIdentityReport(L=1, radius=1, n_instances=3, "
        "stages_checked=2, mismatches=0, first_mismatch=None)"),
    "WordMap": (lambda: quantize.WordMap(1, [0, -1, 1, 2]),
                "WordMap(radius=1, image=array([ 0, -1,  1,  2]))"),
    "TransitionOperator": (
        lambda: quantize.build_uf_matrix(1),
        "TransitionOperator(radius=1, "
        "image=array([-1,  1,  0,  3,  4,  7,  6,  5]))"),
    "BasisPartition": (lambda: quantize.partition_basis(1),
                       "BasisPartition(radius=1, "
                       "invariant_words=array([1, 3, 4, 6]), "
                       "flipped_words=array([0, 5, 7, 2]))"),
    "IsometryReport": (lambda: quantize.IsometryReport(0, 0, 0.0),
                       "IsometryReport(range_residual=0, support_residual=0, "
                       "norm_deviation=0.0)"),
    "ParallelismReport": (
        lambda: quantize.ParallelismReport(1, 1, 7, 0.5, 0.0, 1.0),
        "ParallelismReport(radius=1, applications=1, image_count=7, "
        "expected_amplitude=0.5, max_deviation=0.0, norm=1.0)"),
    "PauliTerm": (lambda: spin_chain.PauliTerm(0.5, [(2, "Z"), (1, "X")]),
                  "PauliTerm(coefficient=0.5, factors=((1, 'X'), (2, 'Z')))"),
    "HamiltonianSum": (
        lambda: spin_chain.HamiltonianSum(
            2, 1, (spin_chain.PauliTerm(1.0, [(1, "X")]),)),
        "HamiltonianSum(n_sites=2, radius=1, terms=(PauliTerm("
        "coefficient=1.0, factors=((1, 'X'),)),))"),
    "SumProductReport": (
        lambda: spin_chain.SumProductReport(2, 1, "verified", 0.5, 0.0),
        "SumProductReport(n_sites=2, radius=1, variant='verified', "
        "sum_vs_product=0.5, product_vs_circuit=0.0)"),
    "StateVector": (lambda: qstate.StateVector(1, [1, 0]),
                    "StateVector(n_qubits=1, "
                    "amplitudes=array([1.+0.j, 0.+0.j]))"),
    "ReckPlan": (
        lambda: unitary_compile.ReckPlan(2, [[0, 1]], [np.eye(2)], [1, -1]),
        "ReckPlan(dimension=2, modes=array([[0, 1]]), "
        "blocks=array([[[1.+0.j, 0.+0.j],\n        [0.+0.j, 1.+0.j]]]), "
        "phases=array([ 1.+0.j, -1.+0.j]))"),
}


def test_every_public_value_type_has_a_sample():
    # a public class on Frozen with fields; ArrayEq is a base without any
    public = set()
    for info in pkgutil.iter_modules(qsca.__path__):
        module = importlib.import_module(f"qsca.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj) and issubclass(obj, Frozen) \
                    and obj is not qstate.ArrayEq:
                public.add(name)
    assert public == set(SAMPLES)


def test_values_of_two_types_are_unequal():
    # the same field values, and ArrayEq's flavour of the rule
    assert gates.Not(2) != sca_core.Rule(2)
    image = quantize.build_uf_matrix(1).image
    assert quantize.WordMap(1, image) != quantize.TransitionOperator(1, image)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_behaves_as_a_frozen_dataclass(name):
    build, text = SAMPLES[name]
    value = build()
    assert type(value).__name__ == name
    # value equality, with a hash that agrees
    other = build()
    assert other is not value and other == value
    assert hash(other) == hash(value)
    assert not value != other
    assert value != object()
    # the dataclass repr: every constructor parameter, in order
    assert repr(value) == text
    # no assignment, no deletion, also of a name that is not a field
    field = next(iter(inspect.signature(type(value)).parameters))
    with pytest.raises(AttributeError, match=f"assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == other
    # copies and a pickle round trip are equal values of the same type
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == text
