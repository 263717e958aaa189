"""Hypothesis settings for the whole suite: every phase except shrink.

A failing @given test reports the first falsifying example it finds, not a
minimal one.  Shrinking walks through many exact-arithmetic examples, and
Hypothesis bounds that phase only by an internal limit of 300 s, with no
public setting for it: one failing property test once stretched a Tier-1
run from about 60 s to 308 s.  Explicit, reused, generated and targeted
examples all still run, and every assertion with them.
"""

from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("no-shrink")
