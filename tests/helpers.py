"""Helpers shared by the test modules."""

OUTPUT_PROJECTIONS = (".attn.wo", ".attn.bo", ".mlp.w2", ".mlp.b2")


def zero_parameters(block, suffixes=OUTPUT_PROJECTIONS):
    """Zero every parameter of ``block`` whose name ends with one of ``suffixes``.

    The default zeroes the attention and MLP output projections, which turns
    every transformer layer into its residual path."""
    for p in block.parameters():
        if p.name.endswith(suffixes):
            p.data[:] = 0
