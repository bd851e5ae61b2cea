"""Repository tooling: documentation checks and the static-analysis suite.

``python -m tools.analysis`` is the unified entry point (CI ``analysis``
job); ``python -m tools.analysis --select W`` runs only the ``docs``
checkers.
"""
