"""Option vocabularies that the CLI offers and the numeric layers check.

They live apart from the layers that use them so that building the CLI
parser loads no numpy; :data:`causalcrit.engine.ROUTES` and
:data:`causalcrit.metrics.AGGREGATION_MODES` are these same tuples.
"""

__all__ = ["ROUTES", "AGGREGATION_MODES"]

# Routes for an interventional distribution; see causalcrit.engine.plan_effect.
ROUTES = ("auto", "truncated", "parents", "backdoor")

# How causalcrit.metrics.aggregate combines the brake and steer threat numbers.
AGGREGATION_MODES = ("max", "mean", "euclidean")
