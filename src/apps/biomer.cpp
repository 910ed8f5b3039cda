// Biomer: a molecular editing application (Table 1 — memory/CPU intensive).
//
// An energy minimizer iterates over Atom objects (CPU), a per-atom
// trajectory store dominates memory, and a pinned 3D viewport redraws the
// molecule after *every* iteration, reading every atom's coordinates through
// the client device. That tight compute-to-UI coupling is why Biomer shows
// the worst remote-execution overhead in Figure 6 (27.5%) and why the
// platform correctly declines to offload it in Figure 10.
#include <algorithm>
#include <cmath>
#include <string>

#include "apps/apps.hpp"
#include "apps/stdlib.hpp"
#include "apps/toolkit.hpp"

namespace aide::apps {

using vm::ObjectRef;
using vm::Value;
using vm::Vm;

namespace {

constexpr SimDuration kPairWork = sim_us(700);
constexpr SimDuration kProjectWork = sim_us(18000);
constexpr SimDuration kAnalyzeWork = sim_us(500);
// Neighbor sampling refines as minimization converges (4 up to 10).
constexpr int kNeighborSamplesCap = 10;
constexpr std::int64_t kTrajectoryInts = 1152;  // 9 KB history per atom
constexpr std::int64_t kAnalysisInts = 16384;   // 128 KB per-iteration buffer
constexpr int kAnalysisRingSlots = 10;

const Value& arg(std::span<const Value> args, std::size_t i) {
  static const Value nil;
  return i < args.size() ? args[i] : nil;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

constexpr FieldId kAtomX{0}, kAtomY{1}, kAtomZ{2}, kAtomElem{3},
    kAtomTraj{4};
constexpr FieldId kMolAtoms{0}, kMolCount{1}, kMolBonds{2};
constexpr FieldId kBondA{0}, kBondB{1}, kBondOrder{2};
constexpr FieldId kViewDisplay{0}, kViewFrames{1};
constexpr FieldId kHudDisplay{0}, kHudUpdates{1};

// Cached call sites (resolved once per registry epoch, then MethodId
// dispatch). const, not constexpr: the resolution fields are mutable.
const vm::CallSite kListAdd{"add"};
const vm::CallSite kMolBuildMol{"buildMol"};
const vm::CallSite kMolGetAtom{"getAtom"};
const vm::CallSite kMolAtomCount{"atomCount"};
const vm::CallSite kMolChecksum{"checksumMol"};
const vm::CallSite kFieldMinimizeStep{"minimizeStep"};
const vm::CallSite kAnalyzerAnalyze{"analyze"};
const vm::CallSite kViewportDrawFrame{"drawFrame"};
const vm::CallSite kHudShowEnergy{"showEnergy"};
const vm::CallSite kDisplayDrawPixel{"drawPixel"};
const vm::CallSite kDisplayDrawText{"drawText"};
const vm::CallSite kDisplayFlush{"flush"};
const vm::StaticCallSite kMathSin{"Math", "sin"};

void register_classes_impl(vm::ClassRegistry& reg) {
  using vm::ClassBuilder;

  reg.register_class(ClassBuilder("Bio.Atom")
                         .source("src/apps/biomer.cpp")
                         .migratable()
                         .field("x")
                         .field("y")
                         .field("z")
                         .field("element")
                         .field("traj")
                         .build());
  reg.register_class(ClassBuilder("Bio.Bond")
                         .source("src/apps/biomer.cpp")
                         .migratable()
                         .field("a", "Bio.Atom")
                         .field("b", "Bio.Atom")
                         .field("order")
                         .build());

  reg.register_class(
      ClassBuilder("Bio.Molecule")
          .source("src/apps/biomer.cpp")
          .migratable()
          .entry()
          .field("atoms")
          .field("count")
          .field("bonds", "ArrayList")
          .references("Bio.Atom")
          .references("Bio.Bond")
          .method(
              "buildMol",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const std::int64_t n = arg(args, 0).as_int();
                const ObjectRef atoms = ctx.new_ref_array(n);
                for (std::int64_t i = 0; i < n; ++i) {
                  const ObjectRef atom = ctx.new_object("Bio.Atom");
                  const double fx = static_cast<double>((i * 73) % 97);
                  const double fy = static_cast<double>((i * 151) % 89);
                  const double fz = static_cast<double>((i * 211) % 83);
                  ctx.put_field(atom, kAtomX, Value{fx});
                  ctx.put_field(atom, kAtomY, Value{fy});
                  ctx.put_field(atom, kAtomZ, Value{fz});
                  ctx.put_field(atom, kAtomElem, Value{(i % 5) + 1});
                  ctx.put_field(atom, kAtomTraj,
                                Value{ctx.new_int_array(kTrajectoryInts)});
                  ctx.put_field(atoms,
                                FieldId{static_cast<std::uint32_t>(i)},
                                Value{atom});
                }
                ctx.put_field(self, kMolAtoms, Value{atoms});
                ctx.put_field(self, kMolCount, Value{n});
                const ObjectRef bonds = make_list(ctx);
                for (std::int64_t i = 0; i + 1 < n; i += 2) {
                  const ObjectRef bond = ctx.new_object("Bio.Bond");
                  ctx.put_field(bond, kBondA,
                                ctx.get_field(
                                    atoms,
                                    FieldId{static_cast<std::uint32_t>(i)}));
                  ctx.put_field(
                      bond, kBondB,
                      ctx.get_field(atoms, FieldId{static_cast<std::uint32_t>(
                                               i + 1)}));
                  ctx.put_field(bond, kBondOrder, Value{(i % 3) + 1});
                  ctx.call(bonds, kListAdd, {Value{bond}});
                }
                ctx.put_field(self, kMolBonds, Value{bonds});
                return Value{};
              })
          .allocates("Object[]")
          .allocates("Bio.Atom")
          .allocates("Bio.Bond")
          .allocates("int[]")
          .allocates("ArrayList")
          .writes("Bio.Atom", "x")
          .writes("Bio.Atom", "y")
          .writes("Bio.Atom", "z")
          .writes("Bio.Atom", "element")
          .writes("Bio.Atom", "traj")
          .writes("Bio.Bond", "a", "Bio.Atom")
          .writes("Bio.Bond", "b", "Bio.Atom")
          .writes("Bio.Bond", "order")
          .writes_elems("Object[]")
          .reads_elems("Object[]")
          .writes("Bio.Molecule", "atoms")
          .writes("Bio.Molecule", "count")
          .writes("Bio.Molecule", "bonds", "ArrayList")
          .invokes("ArrayList", "add", 1)
          .method("getAtom",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef atoms =
                        ctx.get_field(self, kMolAtoms).as_ref();
                    return ctx.get_field(
                        atoms, FieldId{static_cast<std::uint32_t>(
                                   arg(args, 0).as_int())});
                  })
          .reads("Bio.Molecule", "atoms")
          .reads_elems("Object[]")
          .method("atomCount",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    return ctx.get_field(self, kMolCount);
                  })
          .reads("Bio.Molecule", "count")
          .method("checksumMol",
                  [](Vm& ctx, ObjectRef self, auto) -> Value {
                    const std::int64_t n =
                        ctx.get_field(self, kMolCount).as_int();
                    std::uint64_t h = 5;
                    for (std::int64_t i = 0; i < n; i += 7) {
                      const ObjectRef atom =
                          ctx.call(self, kMolGetAtom, {Value{i}}).as_ref();
                      h = mix(h, static_cast<std::uint64_t>(
                                     ctx.get_field(atom, kAtomX).to_real() *
                                     1000.0));
                      h = mix(h, static_cast<std::uint64_t>(
                                     ctx.get_field(atom, kAtomZ).to_real() *
                                     1000.0));
                    }
                    return Value{static_cast<std::int64_t>(h)};
                  })
          .arity(0)
          .reads("Bio.Molecule", "count")
          .reads("Bio.Atom", "x")
          .reads("Bio.Atom", "z")
          .invokes("Bio.Molecule", "getAtom", 1)
          .build());

  reg.register_class(
      ClassBuilder("Bio.ForceField")
          .source("src/apps/biomer.cpp")
          .migratable()
          .entry()
          .field("steps")
          .references("Bio.Atom")
          .method(
              "minimizeStep",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef mol = arg(args, 0).as_ref();
                const std::int64_t iter = arg(args, 1).as_int();
                const std::int64_t n = ctx.call(mol, kMolAtomCount).as_int();
                double energy = 0.0;
                const int samples = std::min<int>(
                    4 + static_cast<int>(iter) / 2, kNeighborSamplesCap);
                for (std::int64_t i = 0; i < n; ++i) {
                  const ObjectRef atom =
                      ctx.call(mol, kMolGetAtom, {Value{i}}).as_ref();
                  double x = ctx.get_field(atom, kAtomX).to_real();
                  double y = ctx.get_field(atom, kAtomY).to_real();
                  double z = ctx.get_field(atom, kAtomZ).to_real();
                  double fx = 0, fy = 0, fz = 0;
                  for (int s = 1; s <= samples; ++s) {
                    ctx.work(kPairWork);
                    const std::int64_t j = (i + s * 17) % n;
                    const ObjectRef other =
                        ctx.call(mol, kMolGetAtom, {Value{j}}).as_ref();
                    const double dx =
                        ctx.get_field(other, kAtomX).to_real() - x;
                    const double dy =
                        ctx.get_field(other, kAtomY).to_real() - y;
                    const double dz =
                        ctx.get_field(other, kAtomZ).to_real() - z;
                    const double d2 = dx * dx + dy * dy + dz * dz + 1.0;
                    // Distance math is JIT-inlined arithmetic (the hot
                    // loop does not call the Math natives; the viewport's
                    // projection does).
                    const double d = std::sqrt(d2);
                    const double f = 1.0 / (d * d) - 0.02 / d;
                    fx += f * dx;
                    fy += f * dy;
                    fz += f * dz;
                    energy += f;
                  }
                  x += 0.05 * fx;
                  y += 0.05 * fy;
                  z += 0.05 * fz;
                  ctx.put_field(atom, kAtomX, Value{x});
                  ctx.put_field(atom, kAtomY, Value{y});
                  ctx.put_field(atom, kAtomZ, Value{z});
                  // Record the trajectory sample.
                  const ObjectRef traj =
                      ctx.get_field(atom, kAtomTraj).as_ref();
                  const std::int64_t slot =
                      (iter * 3) % (kTrajectoryInts - 3);
                  ctx.array_put(traj, slot,
                                Value{static_cast<std::int64_t>(x * 100)});
                  ctx.array_put(traj, slot + 1,
                                Value{static_cast<std::int64_t>(y * 100)});
                  ctx.array_put(traj, slot + 2,
                                Value{static_cast<std::int64_t>(z * 100)});
                }
                const Value steps = ctx.get_field(self, FieldId{0});
                ctx.put_field(self, FieldId{0},
                              Value{(steps.is_int() ? steps.as_int() : 0) +
                                    1});
                return Value{energy};
              })
          .arity(2)
          .reads("Bio.Atom", "x")
          .reads("Bio.Atom", "y")
          .reads("Bio.Atom", "z")
          .reads("Bio.Atom", "traj")
          .writes("Bio.Atom", "x")
          .writes("Bio.Atom", "y")
          .writes("Bio.Atom", "z")
          .writes_elems("int[]")
          .reads("Bio.ForceField", "steps")
          .writes("Bio.ForceField", "steps")
          .invokes("Bio.Molecule", "atomCount", 0)
          .invokes("Bio.Molecule", "getAtom", 1)
          .build());

  reg.register_class(
      ClassBuilder("Bio.Analyzer")
          .source("src/apps/biomer.cpp")
          .migratable()
          .entry()
          .field("ring")
          .field("pos")
          .references("Bio.Atom")
          // Per-iteration analysis pass: fills a fresh sample buffer and
          // retains the last few in a ring (the molecule editor's live
          // property charts). This is the application's steady allocation
          // churn — it gives the collector work and the resource monitor a
          // signal while the trajectory store keeps the heap nearly full.
          .method(
              "analyze",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef mol = arg(args, 0).as_ref();
                Value ring_v = ctx.get_field(self, FieldId{0});
                if (!ring_v.is_ref() || ring_v.as_ref().is_null()) {
                  ring_v = Value{ctx.new_ref_array(kAnalysisRingSlots)};
                  ctx.put_field(self, FieldId{0}, ring_v);
                  ctx.put_field(self, FieldId{1}, Value{0});
                }
                const ObjectRef buffer = ctx.new_int_array(kAnalysisInts);
                const std::int64_t n = ctx.call(mol, kMolAtomCount).as_int();
                for (std::int64_t i = 0; i < n; i += 16) {
                  ctx.work(kAnalyzeWork);
                  const ObjectRef atom =
                      ctx.call(mol, kMolGetAtom, {Value{i}}).as_ref();
                  const double x = ctx.get_field(atom, kAtomX).to_real();
                  ctx.array_put(buffer, (i / 16) % kAnalysisInts,
                                Value{static_cast<std::int64_t>(x * 100)});
                }
                const std::int64_t pos =
                    ctx.get_field(self, FieldId{1}).as_int();
                ctx.put_field(ring_v.as_ref(),
                              FieldId{static_cast<std::uint32_t>(
                                  pos % kAnalysisRingSlots)},
                              Value{buffer});
                ctx.put_field(self, FieldId{1}, Value{pos + 1});
                return Value{pos};
              })
          .arity(1)
          .reads("Bio.Analyzer", "ring")
          .reads("Bio.Analyzer", "pos")
          .writes("Bio.Analyzer", "ring")
          .writes("Bio.Analyzer", "pos")
          .allocates("Object[]")
          .allocates("int[]")
          .writes_elems("Object[]")
          .writes_elems("int[]")
          .reads("Bio.Atom", "x")
          .invokes("Bio.Molecule", "atomCount", 0)
          .invokes("Bio.Molecule", "getAtom", 1)
          .build());

  reg.register_class(
      ClassBuilder("Bio.Viewport3D")
          .source("src/apps/biomer.cpp")
          .pin(vm::PinReason::ui)
          .entry()
          .field("display", "Display")
          .field("frames")
          .references("Bio.Atom")
          // Pinned: the viewport rasterizes into the device framebuffer.
          .native_method(
              "drawFrame",
              [](Vm& ctx, ObjectRef self, auto args) -> Value {
                const ObjectRef mol = arg(args, 0).as_ref();
                const ObjectRef display =
                    ctx.get_field(self, kViewDisplay).as_ref();
                const std::int64_t n = ctx.call(mol, kMolAtomCount).as_int();
                // Project and plot a sampled subset every frame.
                for (std::int64_t i = 0; i < n; i += 3) {
                  ctx.work(kProjectWork);
                  const ObjectRef atom =
                      ctx.call(mol, kMolGetAtom, {Value{i}}).as_ref();
                  const double x = ctx.get_field(atom, kAtomX).to_real();
                  const double y = ctx.get_field(atom, kAtomY).to_real();
                  const double z = ctx.get_field(atom, kAtomZ).to_real();
                  const double a =
                      ctx.call_static(kMathSin, {Value{x * 0.1}})
                          .as_real();
                  ctx.call(display, kDisplayDrawPixel,
                           {Value{static_cast<std::int64_t>(x * 2 + z) % 320},
                            Value{static_cast<std::int64_t>(y + a * 8) % 240},
                            Value{std::int64_t{0x33CC33}}});
                }
                ctx.call(display, kDisplayFlush);
                const Value frames = ctx.get_field(self, kViewFrames);
                ctx.put_field(self, kViewFrames,
                              Value{(frames.is_int() ? frames.as_int() : 0) +
                                    1});
                return Value{};
              })
          .arity(1)
          .effect(vm::NativeEffect::device_state)
          .reads("Bio.Viewport3D", "display")
          .reads("Bio.Viewport3D", "frames")
          .writes("Bio.Viewport3D", "frames")
          .reads("Bio.Atom", "x")
          .reads("Bio.Atom", "y")
          .reads("Bio.Atom", "z")
          .invokes("Bio.Molecule", "atomCount", 0)
          .invokes("Bio.Molecule", "getAtom", 1)
          .invokes("Math", "sin", 1)
          .invokes("Display", "drawPixel", 3)
          .invokes("Display", "flush", 0)
          .build());

  reg.register_class(
      ClassBuilder("Bio.Hud")
          .source("src/apps/biomer.cpp")
          .entry()
          .field("display", "Display")
          .field("updates")
          .method("showEnergy",
                  [](Vm& ctx, ObjectRef self, auto args) -> Value {
                    const ObjectRef display =
                        ctx.get_field(self, kHudDisplay).as_ref();
                    ctx.call(
                        display, kDisplayDrawText,
                        {Value{0}, Value{0},
                         Value{"E=" + std::to_string(
                                          arg(args, 0).to_real())}});
                    const Value n = ctx.get_field(self, kHudUpdates);
                    ctx.put_field(self, kHudUpdates,
                                  Value{(n.is_int() ? n.as_int() : 0) + 1});
                    return Value{};
                  })
          .reads("Bio.Hud", "display")
          .reads("Bio.Hud", "updates")
          .writes("Bio.Hud", "updates")
          .invokes("Display", "drawText", 3)
          .build());
}

}  // namespace

void register_biomer(vm::ClassRegistry& reg) {
  register_toolkit(reg);
  if (reg.contains("Bio.Atom")) return;
  register_classes_impl(reg);
}

std::uint64_t run_biomer(Vm& ctx, const AppParams& params) {
  const auto atoms = static_cast<std::int64_t>(params.atoms * params.scale);
  const int iterations = params.iterations;

  const ObjectRef display = ctx.new_object("Display");
  ctx.add_root(display);

  const ObjectRef mol = ctx.new_object("Bio.Molecule");
  ctx.add_root(mol);
  ctx.call(mol, kMolBuildMol, {Value{atoms}});

  const ObjectRef field = ctx.new_object("Bio.ForceField");
  ctx.add_root(field);
  const ObjectRef viewport = ctx.new_object("Bio.Viewport3D");
  ctx.add_root(viewport);
  ctx.put_field(viewport, kViewDisplay, Value{display});
  const ObjectRef hud = ctx.new_object("Bio.Hud");
  ctx.add_root(hud);
  ctx.put_field(hud, kHudDisplay, Value{display});

  const ObjectRef analyzer = ctx.new_object("Bio.Analyzer");
  ctx.add_root(analyzer);

  const ObjectRef window =
      build_standard_window(ctx, display, "Biomer - minimize", 5, 2);
  ctx.add_root(window);

  for (int iter = 0; iter < iterations; ++iter) {
    const Value energy =
        ctx.call(field, kFieldMinimizeStep, {Value{mol}, Value{iter}});
    ctx.call(analyzer, kAnalyzerAnalyze, {Value{mol}});
    // The editor refreshes the 3D view and HUD after every iteration.
    ctx.call(viewport, kViewportDrawFrame, {Value{mol}});
    ctx.call(hud, kHudShowEnergy, {energy});
    dispatch_ui_event(ctx, window, iter);
    if (iter % 4 == 0) paint_window(ctx, window);
  }

  std::uint64_t h = static_cast<std::uint64_t>(
      ctx.call(mol, kMolChecksum).as_int());
  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(display, FieldId{1}).is_int()
                     ? ctx.get_field(display, FieldId{1}).as_int()
                     : 0));
  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(viewport, kViewFrames).as_int()));

  h = mix(h, static_cast<std::uint64_t>(
                 ctx.get_field(window, FieldId{5}).as_int()));
  for (const ObjectRef r :
       {display, mol, field, viewport, hud, analyzer, window}) {
    ctx.remove_root(r);
  }
  ctx.clear_driver_roots();
  return h;
}

}  // namespace aide::apps
