"""Numerical certification of uniform L^p lower bounds.

Functions with Delta u >= 1 (or heat-operator excess Hu >= 1) on a domain
cannot be small on most of it: their L^p quasinorms, p-means, and sublevel
sets obey explicit lower bounds.  This package computes the constants in
those bounds, checks the mean-value machinery behind them by Monte Carlo,
and builds the constructions showing where they stop being improvable.

Names are imported from their submodules (``from lpbounds.geometry import
Box``); the package re-exports none.  Importing it loads every layer once,
so the cost of each layer shows in ``python -X importtime -c "import
lpbounds.cli"``.
"""

from . import (geometry, fields, quadrature, averages, constants,  # noqa: F401
               counterexamples, verify)

__version__ = "0.1.0"
