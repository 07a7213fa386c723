"""Helpers shared by the test modules."""

import inspect
import re

import hsiseg.autodiff as ad

OUTPUT_PROJECTIONS = (".attn.wo", ".attn.bo", ".mlp.w2", ".mlp.b2")


def zero_parameters(block, suffixes=OUTPUT_PROJECTIONS):
    """Zero every parameter of ``block`` whose name ends with one of ``suffixes``.

    The default zeroes the attention and MLP output projections, which turns
    every transformer layer into its residual path."""
    for p in block.parameters():
        if p.name.endswith(suffixes):
            p.data[:] = 0


def assert_consumers_first(nodes):
    """Every node of ``nodes`` is listed once and before each of its parents."""
    position = {id(node): i for i, node in enumerate(nodes)}
    assert len(position) == len(nodes)
    for i, node in enumerate(nodes):
        assert all(position[id(p)] > i for p in node._parents)


def recorded_ops():
    """The op names the engine can record: those its ``_from_op`` calls name."""
    return set(re.findall(r'_from_op\(.*"(\w+)"', inspect.getsource(ad)))
