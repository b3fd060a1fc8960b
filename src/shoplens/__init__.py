"""Frequent-shopper characterization from online-retail invoice lines.

Stages: ingest -> RFM value scoring -> LASSO feature selection -> sparse
non-negative factorization -> density clustering -> bipartite graph export.

The package exports only ``__version__``; each module (``shoplens.ingest``,
``shoplens.lasso``, ..., ``shoplens.pipeline``) is the API of its stage, and
``shoplens.cli`` is the command line.
"""

__version__ = "0.1.0"
