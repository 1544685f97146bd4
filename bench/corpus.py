"""Seeded generator for the benchmark's synthetic, recipe-like FOON corpus.

The real FOON corpus (Paulius et al., IROS 2016) is not available offline,
so every input the benchmark feeds the program is generated here from a
seed. The same seed and size give byte-identical files.

The corpus imitates how a universal FOON is assembled from annotated
videos: each recipe file is one annotator's version of a dish. Variants of
one dish share preparation steps (peel, chop, fry ...) and differ in the
tool they picked and the order they added ingredients, so merging the
files deduplicates a large share of units and leaves several producers per
key. Tools cycle between clean and dirty; each cuisine has a few "rare"
tools that are missing from the kitchen, which makes some producers
unusable and some goals reachable only through other producers, or not
at all.

This module shares no code with the ``foon`` package: it writes the text
format itself and computes ground truth (minimum unit depth per key) with
its own fixpoint, so the benchmark can check the program against it.
"""

import random
from dataclasses import dataclass

INF = float("inf")

_FOODS = [
    "onion", "garlic", "tomato", "potato", "carrot", "celery", "pepper",
    "cabbage", "lettuce", "cucumber", "zucchini", "eggplant", "mushroom",
    "leek", "spinach", "broccoli", "cauliflower", "pumpkin", "squash", "corn",
    "pea", "bean", "lentil", "chickpea", "rice", "noodle", "bread", "tofu",
    "chicken", "beef", "pork", "lamb", "salmon", "tuna", "shrimp", "egg",
    "cheese", "butter", "milk", "yogurt", "apple", "pear", "lemon", "lime",
    "orange", "banana", "mango", "pineapple", "strawberry", "ginger", "chili",
    "basil", "parsley", "cilantro", "mint", "olive", "avocado", "beet",
    "radish", "turnip",
]
_VARIETIES = ["red", "green", "baby", "wild", "sweet", "smoked", "young", "giant"]
_DISH_STYLES = ["soup", "stew", "salad", "curry", "pie", "stir fry", "bake", "sauce", "wrap", "bowl"]
_DISH_ADJECTIVES = ["spicy", "creamy", "rustic", "quick", "golden", "hearty", "fresh", "classic"]

# Preparation steps: (source state, target state, motion synonyms, tools
# that can do it).
# A target state reachable from several sources or with several tools gets
# several producers in the merged graph.
_PREP_STEPS = [
    ("whole", "washed", ("rinse", "wash", "clean"), ("colander", "sink")),
    ("whole", "peeled", ("peel", "skin", "pare"), ("peeler", "knife", "paring knife")),
    ("washed", "peeled", ("peel", "skin", "pare"), ("peeler", "paring knife")),
    ("washed", "chopped", ("chop", "cut", "hack"), ("knife", "cleaver", "food processor")),
    ("peeled", "chopped", ("chop", "cut", "hack"), ("knife", "food processor", "mandoline")),
    ("peeled", "sliced", ("slice", "cut", "carve"), ("knife", "mandoline", "slicer")),
    ("washed", "sliced", ("slice", "cut", "carve"), ("knife", "slicer")),
    ("peeled", "grated", ("grate", "shred", "rasp"), ("grater", "food processor", "mandoline")),
    ("chopped", "diced", ("dice", "cube", "cut"), ("knife", "cleaver")),
    ("chopped", "minced", ("mince", "chop finely", "hash"), ("knife", "food processor")),
    ("sliced", "fried", ("fry", "pan fry", "sear"), ("pan", "wok")),
    ("diced", "fried", ("fry", "pan fry", "sear"), ("pan", "wok", "deep fryer")),
    ("chopped", "boiled", ("boil", "blanch", "poach"), ("pot", "pressure cooker")),
    ("sliced", "roasted", ("roast", "grill", "broil"), ("oven", "tray")),
    ("diced", "roasted", ("roast", "grill", "broil"), ("oven", "air fryer")),
    ("minced", "sauteed", ("saute", "sweat", "stir"), ("pan", "wok")),
]
_CUISINES = ("thai", "french", "mexican", "indian", "italian", "greek", "korean",
             "moroccan", "peruvian", "nordic")
# Ingredients per dish, cycled so that every seed has the same mix.
_DISH_SIZES = (1, 2, 2, 3, 3, 4, 4, 5, 6)
_CONTAINERS = ["bowl", "pot", "pan", "tray", "casserole"]
_FINISH = [("cook", "pot"), ("bake", "oven"), ("toss", "tongs"), ("simmer", "pot"), ("blend", "blender")]
# Tools whose clean state is not in the kitchen: reachable only by washing
# a dirty one, which only using a clean one produces, so never reachable.
_RARE_TOOLS = ("mandoline", "deep fryer", "air fryer", "slicer", "pressure cooker")


@dataclass(frozen=True)
class Size:
    """Corpus dimensions; FULL is the benchmark, TINY the smoke test."""

    ingredients: int
    dishes: int
    variants: int
    goals_per_depth: int
    chain_short: int
    chain_long: int
    diamond_layers: tuple
    unreachable_limits: tuple


FULL = Size(
    ingredients=250, dishes=700, variants=3, goals_per_depth=40,
    chain_short=900, chain_long=2000, diamond_layers=(18, 19), unreachable_limits=(6, 10),
)
TINY = Size(
    ingredients=40, dishes=30, variants=3, goals_per_depth=2,
    chain_short=30, chain_long=60, diamond_layers=(4, 5), unreachable_limits=(2, 4),
)


def key(name, states=(), ingredients=()):
    """Canonical identity key, built independently of foon.core."""
    text = name
    if states:
        text += "{" + ",".join(sorted(states)) + "}"
    if ingredients:
        text += "[" + ",".join(sorted(ingredients)) + "]"
    return text


@dataclass(frozen=True)
class Obj:
    name: str
    states: tuple = ()
    ingredients: tuple = ()

    @property
    def key(self):
        return key(self.name, self.states, self.ingredients)

    def lines(self):
        out = [f"O\t{self.name}"]
        ings = "\t{" + ",".join(sorted(self.ingredients)) + "}" if self.ingredients else ""
        states = sorted(self.states)
        if states:
            out.append(f"S\t{states[0]}{ings}")
            out.extend(f"S\t{state}" for state in states[1:])
        elif ings:
            out.append(f"S\t{ings}")
        return out


@dataclass(frozen=True)
class Unit:
    inputs: tuple
    motion: str
    rate: float
    outputs: tuple

    @property
    def identity(self):
        return (
            tuple(sorted(o.key for o in self.inputs)),
            self.motion,
            tuple(sorted(o.key for o in self.outputs)),
        )

    def lines(self):
        out = []
        for obj in self.inputs:
            out.extend(obj.lines())
        out.append(f"M\t{self.motion}\t{self.rate!r}")
        for obj in self.outputs:
            out.extend(obj.lines())
        out.append("//")
        return out


def graph_text(units, header="# foon subgraph"):
    """Text in the canonical layout the program's serializer emits."""
    lines = [header]
    for unit in units:
        lines.extend(unit.lines())
    return "\n".join(lines) + "\n"


def kitchen_text(objs):
    lines = ["# kitchen"]
    for obj in objs:
        lines.extend(obj.lines())
        lines.append("//")
    return "\n".join(lines) + "\n"


def dedup(units):
    """First occurrence of each identity, in order (union semantics)."""
    seen = set()
    out = []
    for unit in units:
        if unit.identity not in seen:
            seen.add(unit.identity)
            out.append(unit)
    return out


def min_depths(units, kitchen_keys):
    """Fixpoint ground truth: fewest functional-unit layers per key.

    depth(k) = 0 for kitchen keys, else min over producers of
    1 + max(depth of inputs). Keys absent from the result are unreachable.
    """
    depth = {k: 0 for k in kitchen_keys}
    changed = True
    while changed:
        changed = False
        for unit in units:
            level = 0
            for obj in unit.inputs:
                d = depth.get(obj.key, INF)
                if d > level:
                    level = d
            if level == INF:
                continue
            level += 1
            for obj in unit.outputs:
                if level < depth.get(obj.key, INF):
                    depth[obj.key] = level
                    changed = True
    return depth


def _rate(rng):
    return round(rng.uniform(0.5, 0.99), 2)


class _Catalog:
    """Every distinct unit of the corpus, created once with a fixed rate."""

    def __init__(self, rng):
        self.rng = rng
        self.units = {}

    def unit(self, inputs, motion, outputs):
        candidate = Unit(tuple(inputs), motion, 0.0, tuple(outputs))
        stored = self.units.get(candidate.identity)
        if stored is None:
            stored = Unit(candidate.inputs, motion, _rate(self.rng), candidate.outputs)
            self.units[candidate.identity] = stored
        return stored


@dataclass
class Corpus:
    recipes: list          # [(file name, [Unit])]
    universal: list        # deduplicated units in first-occurrence order
    kitchen: list          # [Obj]
    goals: list            # [(spec, resolved key)]
    depths: dict           # oracle min depth per key

    def shape(self):
        parsed = sum(len(units) for _, units in self.recipes)
        nodes = {o.key for u in self.universal for o in u.inputs + u.outputs}
        producers = {}
        for u in self.universal:
            for o in u.outputs:
                producers[o.key] = producers.get(o.key, 0) + 1
        per_key = sorted(producers.values())
        hist = {}
        for _, goal in self.goals:
            d = self.depths.get(goal)
            label = "none" if d is None else str(d)
            hist[label] = hist.get(label, 0) + 1
        return {
            "synthetic": True,
            "recipe_files": len(self.recipes),
            "units_parsed": parsed,
            "units": len(self.universal),
            "nodes": len(nodes),
            "dedup_share": round(1 - len(self.universal) / parsed, 4),
            "producers_per_key": {
                "keys": len(per_key),
                "mean": round(sum(per_key) / len(per_key), 3),
                "median": per_key[len(per_key) // 2],
                "max": per_key[-1],
                "share_with_2_or_more": round(sum(1 for n in per_key if n > 1) / len(per_key), 4),
            },
            "kitchen_items": len(self.kitchen),
            "goals": len(self.goals),
            "goal_depth_histogram": dict(sorted(hist.items(), key=lambda kv: (len(kv[0]), kv[0]))),
        }


def _names(rng, count):
    pool = list(_FOODS) + [f"{v} {f}" for v in _VARIETIES for f in _FOODS]
    head, tail = pool[: len(_FOODS)], pool[len(_FOODS):]
    rng.shuffle(tail)
    return (head + tail)[:count]


def build_corpus(seed, size=FULL):
    rng = random.Random(seed)
    catalog = _Catalog(rng)
    ingredients = _names(rng, size.ingredients)
    tools = sorted({t for *_, ts in _PREP_STEPS for t in ts} | {t for _, t in _FINISH})
    board = Obj("cutting board", ("clean",))
    board_dirty = Obj("cutting board", ("dirty",))

    # Each ingredient belongs to a cuisine and supports a random subset of
    # preparation steps, each with a random subset of the tools able to do
    # it. Rare tools are specific to a cuisine, so each cuisine's unusable
    # clean/dirty cycles stay within it.
    cuisine_of = {name: _CUISINES[i % len(_CUISINES)] for i, name in enumerate(ingredients)}
    prep = {}  # (ingredient, target state) -> [Unit]
    for name in ingredients:
        steps = sorted(rng.sample(range(len(_PREP_STEPS)), 11))
        steps = [_PREP_STEPS[i] for i in steps]
        for src, dst, motions, step_tools in steps:
            chosen = rng.sample(step_tools, max(1, len(step_tools) - 1))
            for tool, motion in ((t, m) for t in chosen for m in motions):
                if tool in _RARE_TOOLS:
                    tool = f"{cuisine_of[name]} {tool}"
                inputs = [Obj(name, (src,)), Obj(tool, ("clean",))]
                outputs = [Obj(name, (dst,)), Obj(tool, ("dirty",))]
                if motions[0] in ("chop", "slice", "dice", "mince"):
                    inputs.append(board)
                    outputs.append(board_dirty)
                prep.setdefault((name, dst), []).append(catalog.unit(inputs, motion, outputs))

    def prep_path(name, state, seen=()):
        """Units of one randomly chosen way to bring `name` to `state`."""
        if state == "whole":
            return []
        options = [u for u in prep.get((name, state), []) if u.inputs[0].states[0] not in seen]
        if not options:
            return None
        unit = rng.choice(options)
        before = prep_path(name, unit.inputs[0].states[0], seen + (state,))
        return None if before is None else before + [unit]

    # Ingredients are prepared to states with at least one path from whole.
    prepared = {}
    for (name, state) in prep:
        if prep_path(name, state) is not None:
            prepared.setdefault(name, []).append(state)

    recipes = []
    used_dish_names = set()
    for dish_no in range(size.dishes):
        style = rng.choice(_DISH_STYLES)
        base = rng.choice(ingredients)
        dish_name = f"{rng.choice(_DISH_ADJECTIVES)} {base} {style}"
        while dish_name in used_dish_names:
            dish_name = f"{rng.choice(_DISH_ADJECTIVES)} {rng.choice(ingredients)} {style}"
        used_dish_names.add(dish_name)
        n_ing = _DISH_SIZES[dish_no % len(_DISH_SIZES)]
        cuisine = _CUISINES[dish_no % len(_CUISINES)]
        pool = [i for i in ingredients if i in prepared and cuisine_of[i] == cuisine]
        picks = rng.sample(pool, min(n_ing, len(pool)))
        targets = {name: rng.choice(prepared[name]) for name in picks}
        container = rng.choice(_CONTAINERS)
        verb, finish_tool = rng.choice(_FINISH)
        dish = Obj(dish_name, ("cooked",))
        for variant in range(size.variants):
            units = []
            for name in picks:
                path = prep_path(name, targets[name])
                units.extend(path or [])
            # Most annotators add ingredients in the recipe's listed order.
            order = sorted(picks)
            if rng.random() < 0.3:
                rng.shuffle(order)
            holder = Obj(container, ("empty",))
            held = []
            for name in order:
                held.append(name)
                filled = Obj(container, ("filled",), tuple(sorted(held)))
                units.append(catalog.unit([holder, Obj(name, (targets[name],))], "add", [filled]))
                holder = filled
            units.append(catalog.unit(
                [holder, Obj(finish_tool, ("clean",))], verb, [dish, Obj(finish_tool, ("dirty",))]))
            # The first annotator of each dish records washing up, which
            # closes the clean/dirty cycle of every tool the dish used.
            if variant == 0:
                for u in list(units):
                    for obj in u.outputs:
                        if obj.states == ("dirty",):
                            units.append(catalog.unit(
                                [obj, Obj("sink", ("running",))], "wash",
                                [Obj(obj.name, ("clean",))]))
            recipes.append((f"recipe_{dish_no:04d}_{variant}.foon", dedup(units)))

    universal = dedup(u for _, units in recipes for u in units)

    # Kitchen: common tools, containers, most whole ingredients.
    kitchen = [Obj(t, ("clean",)) for t in tools if t not in _RARE_TOOLS]
    kitchen += [board, Obj("sink", ("running",))]
    kitchen += [Obj(c, ("empty",)) for c in _CONTAINERS]
    missing = set(rng.sample(ingredients, max(1, len(ingredients) // 12)))
    kitchen += [Obj(name, ("whole",)) for name in ingredients if name not in missing]
    kitchen_keys = {o.key for o in kitchen}
    depths = min_depths(universal, kitchen_keys)

    produced = {o.key for u in universal for o in u.outputs}
    all_keys = produced | {o.key for u in universal for o in u.inputs} | kitchen_keys

    # Goals: stratified over oracle depths 1..9, plus a few kitchen items
    # and a few keys with no producer. Keys that have producers but cannot
    # be reached are left to the deep workload.
    name_counts = {}
    for k in all_keys:
        base_name = k.split("{", 1)[0].split("[", 1)[0]
        name_counts[base_name] = name_counts.get(base_name, 0) + 1
    by_depth = {}
    for k in sorted(produced):
        d = depths.get(k)
        if d is not None and 1 <= d <= 9:
            by_depth.setdefault(d, []).append(k)
    goals = []
    for d in range(1, 10):
        pool = by_depth.get(d, [])
        for k in rng.sample(pool, min(size.goals_per_depth, len(pool))):
            base_name = k.split("{", 1)[0].split("[", 1)[0]
            bare = name_counts[base_name] == 1 and rng.random() < 0.5
            goals.append((base_name if bare else k, k))
    for obj in rng.sample(kitchen, 6):
        goals.append((obj.key, obj.key))
    no_producer = sorted(Obj(n, ("whole",)).key for n in missing)[:3]
    no_producer += ["dragon fruit{whole}", "saffron{ground}", "truffle{shaved}"]
    goals += [(k, k) for k in no_producer]
    rng.shuffle(goals)
    return Corpus(recipes, universal, kitchen, goals, depths)


def chain_units(length):
    """A linear chain: link 0 (in the kitchen) -> link 1 -> ... -> link N."""
    return [
        Unit((Obj(f"link {i}"),), "step", 1.0, (Obj(f"link {i + 1}"),))
        for i in range(length)
    ]


def diamond_units(layers):
    """Stacked diamonds: top i -> left i, right i -> top i+1, per layer."""
    units = []
    for i in range(layers):
        top = Obj(f"top {i}")
        left, right = Obj(f"left {i}"), Obj(f"right {i}")
        units.append(Unit((top,), "split left", 1.0, (left,)))
        units.append(Unit((top,), "split right", 1.0, (right,)))
        units.append(Unit((left, right), "join", 1.0, (Obj(f"top {i + 1}"),)))
    return units
