#include "ppn/ddpg.h"

#include <chrono>
#include <cmath>

#include "backtest/backtester.h"
#include "ckpt/state_io.h"
#include "common/check.h"
#include "obs/trace.h"

namespace ppn::core {

// ------------------------------------------------------ CriticNetwork ----

CriticNetwork::CriticNetwork(const PolicyConfig& config, Rng* init_rng)
    : config_(config) {
  const int64_t m = config.num_assets;
  conv1_ = std::make_unique<nn::Conv2dLayer>(
      market::kNumPriceFields, config.block1_channels,
      nn::ValidTimeConvGeometry(3), init_rng);
  conv2_ = std::make_unique<nn::Conv2dLayer>(
      config.block1_channels, config.block2_channels,
      nn::ValidTimeConvGeometry(config.window - 2), init_rng);
  state_features_ = config.block2_channels * m;
  const int64_t hidden = 64;
  value_hidden_ = std::make_unique<nn::Linear>(state_features_, hidden,
                                               init_rng);
  value_head_ = std::make_unique<nn::Linear>(hidden, 1, init_rng);
  advantage_hidden_ = std::make_unique<nn::Linear>(
      state_features_ + m + (m + 1), hidden, init_rng);
  advantage_head_ = std::make_unique<nn::Linear>(hidden, 1, init_rng);
  RegisterSubmodule("conv1", conv1_.get());
  RegisterSubmodule("conv2", conv2_.get());
  RegisterSubmodule("value_hidden", value_hidden_.get());
  RegisterSubmodule("value_head", value_head_.get());
  RegisterSubmodule("advantage_hidden", advantage_hidden_.get());
  RegisterSubmodule("advantage_head", advantage_head_.get());
}

ag::Var CriticNetwork::Forward(const ag::Var& windows,
                               const ag::Var& prev_actions,
                               const ag::Var& actions) const {
  const int64_t batch = windows->value().dim(0);
  ag::Var h = conv1_->Forward(windows, {.relu = true});
  h = conv2_->Forward(h, {.relu = true});  // [B, m, 1, C2].
  ag::Var state = ag::Reshape(h, {batch, state_features_});  // Asset-major.
  // Dueling-style split: V(s) + A(s, a_{t-1}, a).
  ag::Var value =
      value_head_->Forward(ag::Relu(value_hidden_->Forward(state)));
  ag::Var advantage_input =
      ag::ConcatVars({state, prev_actions, actions}, 1);
  ag::Var advantage = advantage_head_->Forward(
      ag::Relu(advantage_hidden_->Forward(advantage_input)));
  return ag::Add(value, advantage);
}

// -------------------------------------------------------- DdpgTrainer ----

void DdpgConfig::Validate() const {
  PPN_CHECK_GT(steps, 0);
  PPN_CHECK_GT(batch_size, 0);
  PPN_CHECK_GE(warmup, 0);
  PPN_CHECK_GE(buffer_capacity, batch_size)
      << "replay buffer smaller than a minibatch";
  PPN_CHECK_GT(actor_lr, 0.0f);
  PPN_CHECK_GT(critic_lr, 0.0f);
  PPN_CHECK(tau > 0.0f && tau <= 1.0f) << "tau out of (0, 1]: " << tau;
  PPN_CHECK(discount >= 0.0f && discount <= 1.0f)
      << "discount out of [0, 1]: " << discount;
  PPN_CHECK(explore_start >= 0.0 && explore_start <= 1.0);
  PPN_CHECK(explore_end >= 0.0 && explore_end <= 1.0);
  PPN_CHECK(cost_rate >= 0.0 && cost_rate < 1.0)
      << "cost_rate out of [0, 1): " << cost_rate;
}

DdpgTrainer::DdpgTrainer(PolicyModule* actor,
                         const market::MarketDataset& dataset,
                         DdpgConfig config)
    : actor_(CheckNotNull(actor, "DdpgTrainer: actor")),
      config_(std::move(config)),
      num_assets_(actor->config().num_assets),
      window_(actor->config().window),
      first_period_(actor->config().window),
      last_period_(dataset.train_end),
      rng_(config_.seed),
      dropout_rng_(config_.seed ^ 0xD00DULL),
      panel_(&dataset.panel),
      env_period_(actor->config().window),
      previous_action_(actor->config().num_assets + 1,
                       1.0 / (actor->config().num_assets + 1)) {
  config_.Validate();
  PPN_CHECK_EQ(dataset.panel.num_assets(), num_assets_);
  PPN_CHECK_GT(last_period_ - first_period_, 2);

  Rng init_rng(config_.seed ^ 0xC417ULL);
  critic_ = std::make_unique<CriticNetwork>(actor->config(), &init_rng);
  target_actor_ = MakePolicy(actor->config(), &init_rng, &dropout_rng_);
  target_critic_ = std::make_unique<CriticNetwork>(actor->config(), &init_rng);
  target_actor_->CopyParametersFrom(*actor_);
  target_critic_->CopyParametersFrom(*critic_);
  target_actor_->SetTraining(false);
  target_critic_->SetTraining(false);

  actor_optimizer_ =
      std::make_unique<nn::Adam>(actor_->Parameters(), config_.actor_lr);
  critic_optimizer_ =
      std::make_unique<nn::Adam>(critic_->Parameters(), config_.critic_lr);

  windows_.reserve(last_period_ - first_period_);
  for (int64_t t = first_period_; t < last_period_; ++t) {
    windows_.push_back(market::NormalizedWindow(dataset.panel, t - 1, window_));
  }
}

DdpgTrainer::~DdpgTrainer() = default;

Tensor DdpgTrainer::WindowsFor(const std::vector<int64_t>& periods) const {
  const int64_t batch = static_cast<int64_t>(periods.size());
  Tensor out({batch, num_assets_, window_, market::kNumPriceFields});
  const int64_t per_window = num_assets_ * window_ * market::kNumPriceFields;
  float* po = out.MutableData();
  for (int64_t b = 0; b < batch; ++b) {
    const Tensor& w = windows_[periods[b] - first_period_];
    for (int64_t i = 0; i < per_window; ++i) po[b * per_window + i] = w[i];
  }
  return out;
}

Tensor DdpgTrainer::PrevRiskFor(
    const std::vector<const Transition*>& batch) const {
  Tensor out({static_cast<int64_t>(batch.size()), num_assets_});
  float* po = out.MutableData();
  for (size_t b = 0; b < batch.size(); ++b) {
    for (int64_t i = 0; i < num_assets_; ++i) {
      po[b * num_assets_ + i] = static_cast<float>(batch[b]->prev[i + 1]);
    }
  }
  return out;
}

void DdpgTrainer::LearnStep() {
  const int64_t available = static_cast<int64_t>(buffer_.size());
  const int64_t batch_size = std::min(config_.batch_size, available);
  std::vector<const Transition*> batch;
  batch.reserve(batch_size);
  for (int64_t i = 0; i < batch_size; ++i) {
    batch.push_back(&buffer_[rng_.UniformInt(available)]);
  }

  std::vector<int64_t> periods(batch_size);
  for (int64_t b = 0; b < batch_size; ++b) periods[b] = batch[b]->period;
  Tensor state_windows = WindowsFor(periods);
  Tensor prev_risk = PrevRiskFor(batch);
  Tensor actions({batch_size, num_assets_ + 1});
  for (int64_t b = 0; b < batch_size; ++b) {
    for (int64_t i = 0; i <= num_assets_; ++i) {
      actions.MutableData()[b * (num_assets_ + 1) + i] =
          static_cast<float>(batch[b]->action[i]);
    }
  }

  // --- Targets y = r + γ Q'(s', μ'(s')). --------------------------------
  Tensor targets({batch_size, 1});
  {
    std::vector<int64_t> next_periods;
    std::vector<int64_t> next_rows;
    for (int64_t b = 0; b < batch_size; ++b) {
      if (batch[b]->has_next) {
        next_periods.push_back(batch[b]->period + 1);
        next_rows.push_back(b);
      }
    }
    std::vector<double> bootstrap(batch_size, 0.0);
    if (!next_periods.empty()) {
      Tensor next_windows = WindowsFor(next_periods);
      Tensor next_prev(
          {static_cast<int64_t>(next_periods.size()), num_assets_});
      for (size_t r = 0; r < next_rows.size(); ++r) {
        const Transition* tr = batch[next_rows[r]];
        for (int64_t i = 0; i < num_assets_; ++i) {
          next_prev.MutableData()[r * num_assets_ + i] =
              static_cast<float>(tr->action[i + 1]);
        }
      }
      ag::Var next_w = ag::Constant(next_windows);
      ag::Var next_p = ag::Constant(next_prev);
      ag::Var next_actions = target_actor_->Forward(next_w, next_p);
      ag::Var next_q = target_critic_->Forward(next_w, next_p,
                                               ag::Detach(next_actions));
      for (size_t r = 0; r < next_rows.size(); ++r) {
        bootstrap[next_rows[r]] = next_q->value()[r];
      }
    }
    for (int64_t b = 0; b < batch_size; ++b) {
      targets.MutableData()[b] = static_cast<float>(
          batch[b]->reward + config_.discount * bootstrap[b]);
    }
  }

  // --- Critic regression. ----------------------------------------------
  critic_->SetTraining(true);
  critic_->ZeroGrad();
  {
    ag::Var q = critic_->Forward(ag::Constant(state_windows),
                                 ag::Constant(prev_risk),
                                 ag::Constant(actions));
    ag::Var error = ag::Sub(q, ag::Constant(targets));
    ag::Var loss = ag::MeanAll(ag::Mul(error, error));
    ag::Backward(loss);
    critic_optimizer_->ClipGradNorm(5.0);
    critic_optimizer_->Step();
  }

  // --- Actor ascent on Q. ----------------------------------------------
  actor_->SetTraining(true);
  actor_->ZeroGrad();
  critic_->ZeroGrad();
  {
    ag::Var w = ag::Constant(state_windows);
    ag::Var p = ag::Constant(prev_risk);
    ag::Var a = actor_->Forward(w, p);
    ag::Var q = critic_->Forward(w, p, a);
    ag::Var loss = ag::Neg(ag::MeanAll(q));
    ag::Backward(loss);
    last_actor_grad_norm_ = actor_optimizer_->ClipGradNorm(5.0);
    actor_optimizer_->Step();
  }

  target_actor_->PolyakUpdateFrom(*actor_, config_.tau);
  target_critic_->PolyakUpdateFrom(*critic_, config_.tau);
}

double DdpgTrainer::TrainStep() {
  obs::Span step_span("ddpg.step");
  step_span.AddArg("step", static_cast<double>(steps_done_));
  const bool logging = run_log_ != nullptr;
  const auto step_start = logging ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  const backtest::CostModel costs =
      backtest::CostModel::Uniform(config_.cost_rate);
  const int64_t step = steps_done_;
  const int64_t t = env_period_;

  // --- Environment step with exploration. ------------------------------
  actor_->SetTraining(false);
  Tensor w = WindowsFor({t});
  Tensor prev({1, num_assets_});
  for (int64_t i = 0; i < num_assets_; ++i) {
    prev.MutableData()[i] = static_cast<float>(previous_action_[i + 1]);
  }
  ag::Var policy_action =
      actor_->Forward(ag::Constant(w), ag::Constant(prev));
  const double progress =
      static_cast<double>(step) / std::max<int64_t>(config_.steps - 1, 1);
  const double epsilon = config_.explore_start +
                         (config_.explore_end - config_.explore_start) *
                             progress;
  const std::vector<double> noise =
      rng_.Dirichlet(static_cast<int>(num_assets_) + 1, 0.5);
  std::vector<double> mixture(num_assets_ + 1);
  for (int64_t i = 0; i <= num_assets_; ++i) {
    mixture[i] = (1.0 - epsilon) * policy_action->value()[i] +
                 epsilon * noise[i];
  }
  // The backtester's step books the period: it renormalizes the mixture
  // and forces untradeable assets out.
  const backtest::Booking booking = backtest::BookPeriod(
      *panel_, t, backtest::DriftedHolding(*panel_, t, previous_action_),
      std::move(mixture), costs);
  PPN_CHECK(booking.status == backtest::BookingStatus::kOk)
      << "DDPG environment: " << booking.error;
  const std::vector<double>& action = booking.weights;
  const double reward = std::log(booking.net_return);
  const int64_t tail_start =
      config_.steps - std::max<int64_t>(config_.steps / 10, 1);
  if (step >= tail_start && step < config_.steps) {
    tail_sum_ += reward;
    ++tail_count_;
  }

  Transition transition;
  transition.period = t;
  transition.prev = previous_action_;
  transition.action = action;
  transition.reward = reward;
  transition.has_next = (t + 1) < last_period_;
  if (static_cast<int64_t>(buffer_.size()) < config_.buffer_capacity) {
    buffer_.push_back(std::move(transition));
  } else {
    buffer_[buffer_next_ % config_.buffer_capacity] = std::move(transition);
  }
  ++buffer_next_;

  previous_action_ = action;
  ++env_period_;
  if (env_period_ >= last_period_) {
    env_period_ = first_period_;
    previous_action_.assign(num_assets_ + 1, 1.0 / (num_assets_ + 1));
  }

  // --- Learning. --------------------------------------------------------
  if (static_cast<int64_t>(buffer_.size()) >= config_.warmup) {
    LearnStep();
  }
  step_span.AddArg("reward", reward);
  if (logging) {
    obs::RunLogRecord record;
    record.step = steps_done_;
    record.reward_total = reward;
    record.reward_log_return = reward;
    record.grad_norm = last_actor_grad_norm_;
    record.solver_iterations = static_cast<double>(booking.solve.iterations);
    record.step_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - step_start)
                              .count();
    run_log_->Append(record);
  }
  ++steps_done_;
  return reward;
}

double DdpgTrainer::Train() {
  while (steps_done_ < config_.steps) TrainStep();
  return tail_mean();
}

void DdpgTrainer::SaveState(ckpt::CheckpointWriter* writer,
                            const Rng* actor_dropout_rng) const {
  PPN_CHECK(writer != nullptr);
  writer->BeginSection("actor");
  actor_->SaveState(&writer->writer());
  writer->BeginSection("critic");
  critic_->SaveState(&writer->writer());
  writer->BeginSection("target_actor");
  target_actor_->SaveState(&writer->writer());
  writer->BeginSection("target_critic");
  target_critic_->SaveState(&writer->writer());
  writer->BeginSection("actor_opt");
  actor_optimizer_->SaveState(&writer->writer());
  writer->BeginSection("critic_opt");
  critic_optimizer_->SaveState(&writer->writer());

  writer->BeginSection("rng");
  ckpt::WriteRng(&writer->writer(), rng_);
  ckpt::WriteRng(&writer->writer(), dropout_rng_);
  writer->writer().WriteU8(actor_dropout_rng != nullptr ? 1 : 0);
  if (actor_dropout_rng != nullptr) {
    ckpt::WriteRng(&writer->writer(), *actor_dropout_rng);
  }

  writer->BeginSection("buffer");
  writer->writer().WriteI64(buffer_next_);
  writer->writer().WriteI64(static_cast<int64_t>(buffer_.size()));
  for (const Transition& tr : buffer_) {
    writer->writer().WriteI64(tr.period);
    ckpt::WriteDoubleVector(&writer->writer(), tr.prev);
    ckpt::WriteDoubleVector(&writer->writer(), tr.action);
    writer->writer().WriteF64(tr.reward);
    writer->writer().WriteU8(tr.has_next ? 1 : 0);
  }

  writer->BeginSection("trainer");
  writer->writer().WriteI64(config_.batch_size);
  writer->writer().WriteI64(config_.steps);
  writer->writer().WriteU64(config_.seed);
  writer->writer().WriteI64(env_period_);
  ckpt::WriteDoubleVector(&writer->writer(), previous_action_);
  writer->writer().WriteI64(steps_done_);
  writer->writer().WriteF64(tail_sum_);
  writer->writer().WriteI64(tail_count_);
}

bool DdpgTrainer::LoadState(ckpt::CheckpointReader* reader,
                            Rng* actor_dropout_rng, std::string* error) {
  PPN_CHECK(reader != nullptr);
  PPN_CHECK(error != nullptr);
  struct NamedModule {
    const char* section;
    nn::Module* module;
  };
  const NamedModule modules[] = {
      {"actor", actor_},
      {"critic", critic_.get()},
      {"target_actor", target_actor_.get()},
      {"target_critic", target_critic_.get()},
  };
  for (const NamedModule& m : modules) {
    if (!reader->EnterSection(m.section, error)) return false;
    if (!m.module->LoadState(&reader->reader(), error)) {
      *error = std::string(m.section) + ": " + *error;
      return false;
    }
  }
  if (!reader->EnterSection("actor_opt", error)) return false;
  if (!actor_optimizer_->LoadState(&reader->reader(), error)) return false;
  if (!reader->EnterSection("critic_opt", error)) return false;
  if (!critic_optimizer_->LoadState(&reader->reader(), error)) return false;

  if (!reader->EnterSection("rng", error)) return false;
  uint8_t has_actor_dropout = 0;
  if (!ckpt::ReadRng(&reader->reader(), &rng_) ||
      !ckpt::ReadRng(&reader->reader(), &dropout_rng_) ||
      !reader->reader().ReadU8(&has_actor_dropout)) {
    *error = "ddpg state: short read in rng section";
    return false;
  }
  if ((has_actor_dropout != 0) != (actor_dropout_rng != nullptr)) {
    *error = has_actor_dropout != 0
                 ? "ddpg state: checkpoint has an actor dropout rng stream "
                   "but none was supplied"
                 : "ddpg state: actor dropout rng supplied but the "
                   "checkpoint has no stream for it";
    return false;
  }
  if (actor_dropout_rng != nullptr &&
      !ckpt::ReadRng(&reader->reader(), actor_dropout_rng)) {
    *error = "ddpg state: short read in actor dropout rng stream";
    return false;
  }

  if (!reader->EnterSection("buffer", error)) return false;
  int64_t buffer_next = 0;
  int64_t buffer_size = 0;
  if (!reader->reader().ReadI64(&buffer_next) ||
      !reader->reader().ReadI64(&buffer_size)) {
    *error = "ddpg state: short read in buffer header";
    return false;
  }
  if (buffer_size < 0 || buffer_size > config_.buffer_capacity ||
      buffer_next < buffer_size) {
    *error = "ddpg state: implausible replay buffer header";
    return false;
  }
  std::vector<Transition> buffer(static_cast<size_t>(buffer_size));
  for (Transition& tr : buffer) {
    uint8_t has_next = 0;
    if (!reader->reader().ReadI64(&tr.period) ||
        !ckpt::ReadDoubleVector(&reader->reader(), &tr.prev) ||
        !ckpt::ReadDoubleVector(&reader->reader(), &tr.action) ||
        !reader->reader().ReadF64(&tr.reward) ||
        !reader->reader().ReadU8(&has_next)) {
      *error = "ddpg state: short read in replay buffer";
      return false;
    }
    if (tr.prev.size() != static_cast<size_t>(num_assets_) + 1 ||
        tr.action.size() != static_cast<size_t>(num_assets_) + 1) {
      *error = "ddpg state: replay transition dimension mismatch";
      return false;
    }
    tr.has_next = has_next != 0;
  }

  if (!reader->EnterSection("trainer", error)) return false;
  int64_t batch_size = 0;
  int64_t steps = 0;
  uint64_t seed = 0;
  int64_t env_period = 0;
  std::vector<double> previous_action;
  int64_t steps_done = 0;
  double tail_sum = 0.0;
  int64_t tail_count = 0;
  if (!reader->reader().ReadI64(&batch_size) ||
      !reader->reader().ReadI64(&steps) || !reader->reader().ReadU64(&seed) ||
      !reader->reader().ReadI64(&env_period) ||
      !ckpt::ReadDoubleVector(&reader->reader(), &previous_action) ||
      !reader->reader().ReadI64(&steps_done) ||
      !reader->reader().ReadF64(&tail_sum) ||
      !reader->reader().ReadI64(&tail_count)) {
    *error = "ddpg state: short read in trainer section";
    return false;
  }
  if (batch_size != config_.batch_size || steps != config_.steps ||
      seed != config_.seed) {
    *error = "ddpg state: config mismatch (checkpoint written with "
             "batch_size=" +
             std::to_string(batch_size) + " steps=" + std::to_string(steps) +
             " seed=" + std::to_string(seed) + ")";
    return false;
  }
  if (env_period < first_period_ || env_period >= last_period_ ||
      previous_action.size() != static_cast<size_t>(num_assets_) + 1 ||
      steps_done < 0 || steps_done > config_.steps || tail_count < 0) {
    *error = "ddpg state: implausible trainer counters";
    return false;
  }
  buffer_ = std::move(buffer);
  buffer_next_ = buffer_next;
  env_period_ = env_period;
  previous_action_ = std::move(previous_action);
  steps_done_ = steps_done;
  tail_sum_ = tail_sum;
  tail_count_ = tail_count;
  return reader->Finish(error);
}

}  // namespace ppn::core
