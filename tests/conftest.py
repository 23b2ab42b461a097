from hypothesis import settings

# The Tietze differential with 5,000 generated presentations, for a CI step:
#   pytest tests/test_tietze_differential.py --hypothesis-profile=tietze-5000
# Tier-1 keeps 300 examples.
settings.register_profile("tietze-5000", derandomize=True, deadline=None, max_examples=5000)
