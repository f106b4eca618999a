"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples: adding a self-loop, referring to a node outside the vertex
    set, querying the weight of a missing edge.
    """


class EncodingError(ReproError):
    """Raised when a value cannot be encoded to, or decoded from, bits."""


class LabelingError(ReproError):
    """Raised when a labeling is malformed for the operation at hand.

    A labeling must assign a state to every node of the graph it is paired
    with; partial or mis-keyed labelings raise this error.
    """


class LanguageError(ReproError):
    """Raised when a distributed language cannot fulfil a request.

    The most common case is asking for a canonical (legal) labeling of a
    graph on which the language is not constructible, e.g. asking for a
    2-coloring witness of an odd cycle.
    """


class SchemeError(ReproError):
    """Raised when a proof-labeling scheme is used incorrectly.

    Examples: proving a configuration that is not in the scheme's
    language, verifying with a certificate assignment that misses nodes.
    """


class CatalogError(SchemeError):
    """Raised by the scheme catalog for registry misuse.

    Examples: building an unknown scheme name, overriding an undeclared
    parameter, registering two specs under one name, building a
    graph-fitted scheme without a graph.  Subclasses
    :class:`SchemeError` so catch-all scheme handling keeps working.
    """


class SimulationError(ReproError):
    """Raised by the LOCAL-model simulator for protocol violations.

    Examples: an algorithm sending a message on a non-existent port, or a
    run exceeding its round budget without all nodes halting.
    """


class IdentityError(ReproError):
    """Raised for invalid identifier assignments (duplicates, domain
    violations, missing nodes)."""


class AttackError(ReproError):
    """Raised by the lower-bound adversaries when a requested construction
    is impossible (e.g. a splice length incompatible with the budget)."""


class CanonicalError(ReproError):
    """Raised when a value has no faithful canonical byte form.

    Examples: encoding NaN or an arbitrary object, decoding bytes that
    carry an unknown tag.  Content hashes and anti-replay nullifiers are
    derived from canonical bytes, so encoding must fail loudly rather
    than produce an ambiguous rendering.
    """


class ServiceError(ReproError):
    """Raised by the certification service for invalid submissions.

    Examples: an envelope naming an unknown scheme, parameters outside a
    declared :class:`~repro.core.catalog.ParamSpec` bound, a graph
    payload whose content hash does not match its binding.
    """


class EnvelopeError(ServiceError):
    """Raised for structurally invalid proof envelopes.

    Examples: a missing format tag, an unparseable graph or labeling
    section, a graph-hash binding mismatch.  Subclasses
    :class:`ServiceError` so service-level catch-alls keep working.
    """


class ServiceUnavailableError(ServiceError):
    """Raised when the service refuses work because it is saturated.

    The HTTP front end bounds in-flight requests with a counted gate and
    answers 429 (with ``Retry-After``) past the bound; the client
    raises this once its bounded retry budget is spent.  Backpressure,
    not failure: the submission was never admitted, so resubmitting
    the identical envelope later is *not* a replay.
    """


class ReplayError(ServiceError):
    """Raised when an envelope's anti-replay nullifier was already spent.

    Resubmitting the same envelope content under a *fresh* nonce is
    legal (and served from cache); resubmitting the identical envelope —
    same content, same nonce — is a replay and is rejected.
    """
