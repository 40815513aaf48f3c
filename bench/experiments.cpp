#include "experiments.hpp"

#include "registry.hpp"

namespace qols::bench {

void register_all_experiments(Registry& r) {
  register_e1(r);
  register_e2(r);
  register_e3(r);
  register_e4(r);
  register_e5(r);
  register_e6(r);
  register_e7(r);
  register_e8(r);
  register_e9(r);
  register_e10(r);
  register_e11(r);
  register_e12(r);
  register_e13(r);
  register_e14(r);
  register_e15(r);
  register_e16(r);
  register_e17(r);
  register_e18(r);
  register_e19(r);
  register_e20(r);
  register_e21(r);
  register_e22(r);
  register_e23(r);
  register_e24(r);
  register_e26(r);
}

}  // namespace qols::bench
