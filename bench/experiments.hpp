#pragma once
// Explicit registration hooks: one per bench_e*.cpp translation unit. The
// aggregate register_all_experiments (experiments.cpp) references each hook,
// which is what pulls every experiment's object file out of the static
// qols_bench_core library.

namespace qols::bench {

class Registry;

void register_e1(Registry& r);
void register_e2(Registry& r);
void register_e3(Registry& r);
void register_e4(Registry& r);
void register_e5(Registry& r);
void register_e6(Registry& r);
void register_e7(Registry& r);
void register_e8(Registry& r);
void register_e9(Registry& r);
void register_e10(Registry& r);
void register_e11(Registry& r);
void register_e12(Registry& r);
void register_e13(Registry& r);
void register_e14(Registry& r);
void register_e15(Registry& r);
void register_e16(Registry& r);
void register_e17(Registry& r);
void register_e18(Registry& r);
void register_e19(Registry& r);
void register_e20(Registry& r);
void register_e21(Registry& r);
void register_e22(Registry& r);
void register_e23(Registry& r);
void register_e24(Registry& r);
void register_e26(Registry& r);

/// Registers every experiment, in id order.
void register_all_experiments(Registry& r);

}  // namespace qols::bench
