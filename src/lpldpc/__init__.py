"""LP decoding of LDPC codes over BPSK/AWGN.

Library layout:

- ``tanner``   bipartite graphs, alist IO, random regular sampling, BFS tiers
- ``channel``  BPSK/AWGN, normalized LLRs, LLR preprocessing maps
- ``lpdec``    parity polytope constraints, simplex-backed LP/ML decoding
- ``pseudo``   tier-profile pseudo-codewords, pseudo-weights, error laws
- ``witness``  edge-weight certificates: parameters, matchings, exact LP
- ``simcli``   Monte Carlo drivers with reproducible substreams, CSV output

The package exports the ``__all__`` of each of these modules.
"""

from .channel import *  # noqa: F401,F403
from .lpdec import *  # noqa: F401,F403
from .pseudo import *  # noqa: F401,F403
from .simcli import *  # noqa: F401,F403
from .tanner import *  # noqa: F401,F403
from .witness import *  # noqa: F401,F403

__version__ = "0.1.0"
